import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import mixlr
from mixlr import io as mio
from mixlr import toy
from mixlr.calibration import CalibrationBin
from mixlr.cli import EXIT_GOLDEN, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from mixlr.genotypes import FrequencyTable
from mixlr.model import Genotype, Peak, Profile
from mixlr.study import ENGINE_INT, ENGINE_MLE, NONDONOR_RESAMPLED, LrRecord
from mixlr.toy import check_golden


class TestRoundTrips:
    def test_profile_csv(self, tmp_path, toy_profile):
        path = tmp_path / "profile.csv"
        mio.write_profile_csv(path, toy_profile)
        back = mio.read_profile_csv(path)
        assert back.analytical_threshold == toy_profile.analytical_threshold
        assert [(p.allele, p.height, p.size) for p in back.peaks("L")] == [
            (p.allele, p.height, p.size) for p in toy_profile.peaks("L")
        ]

    def test_profile_csv_with_sizes(self, tmp_path):
        prof = Profile({"L": [Peak("12", 800.0, size=150.5)]}, 40.0)
        path = tmp_path / "p.csv"
        mio.write_profile_csv(path, prof)
        back = mio.read_profile_csv(path)
        assert back.peaks("L")[0].size == 150.5

    def test_frequency_table(self, tmp_path, toy_table):
        path = tmp_path / "freq.csv"
        mio.write_frequency_table(path, toy_table)
        back = mio.read_frequency_table(path)
        assert back.frequencies == toy_table.frequencies
        assert back.n_individuals == toy_table.n_individuals

    def test_json_rejects_a_value_json_cannot_hold(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(TypeError):
            mio.write_json(str(path), {"templates": np.array([0, 1])})
        assert not path.exists()
        mio.write_json(str(path), {"templates": [0, 1]})
        assert json.loads(path.read_text()) == {"templates": [0, 1]}

    def test_genotype_csv(self, tmp_path):
        g = {"L": Genotype("A", "B"), "M": Genotype("10", "10")}
        path = tmp_path / "g.csv"
        mio.write_genotype_csv(path, g)
        assert mio.read_genotype_csv(path) == g

    def test_records_csv_with_exclusion(self, tmp_path):
        records = [
            LrRecord(0, NONDONOR_RESAMPLED, ENGINE_MLE, 1.25, c2_hp=14.0, c2_hd=9.0),
            LrRecord(1, NONDONOR_RESAMPLED, ENGINE_MLE, None),
            LrRecord(
                2, NONDONOR_RESAMPLED, ENGINE_MLE, -0.5, c2_hp=50.0, c2_hd=9.0,
                converged=False, function_evals=1234, c2_on_face=True,
            ),
            LrRecord(3, NONDONOR_RESAMPLED, ENGINE_MLE, 0.5, converged=True, c2_on_face=False),
            LrRecord(3, NONDONOR_RESAMPLED, ENGINE_INT, -0.25, converged=False),
        ]
        path = tmp_path / "records.csv"
        mio.write_records_csv(path, records)
        text = path.read_text()
        assert "EXCLUSION" in text
        back = mio.read_records_csv(path)
        assert back == records
        stamp = json.loads((tmp_path / "records.csv.meta.json").read_text())
        assert stamp == mio.output_metadata()

    def test_calibration_csv_grouping(self, tmp_path):
        path = tmp_path / "cal.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["log10_lr", "label", "system"])
            w.writerow(["1.5", "HP", "sysA"])
            w.writerow(["EXCLUSION", "HA", "sysA"])
            w.writerow(["-0.5", "HA", "sysB"])
        grouped = mio.read_calibration_csv(path)
        assert grouped["sysA"] == [(1.5, "HP"), (None, "HA")]
        assert grouped["sysB"] == [(-0.5, "HA")]

    def test_metadata_stamp_needs_a_json_config(self):
        with pytest.raises(TypeError):
            mio.output_metadata(config={"func": print})

    def test_metadata_stamp(self):
        meta = mio.output_metadata(seed=7, config={"a": 1})
        assert meta["format"] == mio.FORMAT_VERSION
        assert meta["seed"] == 7
        assert len(meta["config_hash"]) == 16


@pytest.fixture
def toy_files(tmp_path, toy_profile, toy_table):
    mio.write_profile_csv(tmp_path / "profile.csv", toy_profile)
    mio.write_frequency_table(tmp_path / "freq.csv", toy_table)
    mio.write_genotype_csv(tmp_path / "poi.csv", {"L": Genotype("B", "B")})
    (tmp_path / "hp.json").write_text(
        json.dumps({"noc": 2, "fixed": {"1": "poi.csv"}, "label": "Hp"})
    )
    (tmp_path / "hd.json").write_text(json.dumps({"noc": 1, "label": "Hd"}))
    return tmp_path


class TestCli:
    def test_toy_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "toy"
        assert main(["toy", "--mode", "lattice", "--out", str(out)]) == EXIT_OK
        assert (out / "toy_grid.csv").exists()
        report = json.loads((out / "toy_report.json").read_text())
        assert report["lattice"]["int_h2"] == pytest.approx(0.2050, abs=1e-3)
        stamp = json.loads((out / "toy_grid.csv.meta.json").read_text())
        assert stamp == report["metadata"]

    def test_toy_grid_cells_are_the_library_floats(self, tmp_path, capsys):
        out = tmp_path / "toy"
        assert main(["toy", "--mode", "lattice", "--out", str(out)]) == EXIT_OK
        with open(out / "toy_grid.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        grid = toy.toy_grid()
        assert [float(r[0]) for r in rows] == list(toy.T1_LATTICE)
        assert [[float(c) for c in r[1:]] for r in rows] == grid.tolist()

    def test_toy_check_matches_library(self, capsys):
        # the CLI self-check and the library report identically
        expected = EXIT_OK if not check_golden() else EXIT_GOLDEN
        assert main(["toy", "--mode", "lattice", "--check"]) == expected

    def test_lr_both_engines(self, toy_files, tmp_path, capsys):
        out = tmp_path / "lr.json"
        code = main(
            [
                "lr",
                "--profile", str(toy_files / "profile.csv"),
                "--freq", str(toy_files / "freq.csv"),
                "--hp", str(toy_files / "hp.json"),
                "--hd", str(toy_files / "hd.json"),
                "--engine", "both",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "MLE log10 LR:" in captured.out and "Integrated LR:" in captured.out
        payload = json.loads(out.read_text())
        block = payload["int"]
        assert block["marginal_hd"] > 0
        for tag in ("hp", "hd"):
            assert isinstance(block[f"converged_{tag}"], bool)
            assert block[f"levels_{tag}"] >= 1
            assert block[f"resolution_{tag}"] >= 1
        unconverged = not (block["converged_hp"] and block["converged_hd"])
        assert ("did not converge" in captured.err) == unconverged
        assert "metadata" in payload

    def test_lr_beyond_the_float_range(self, tmp_path, capsys):
        # one contributor of two rare alleles at each of 50 loci: the log10
        # LR is above 308 and the Hd marginal below the smallest float
        loci = [f"L{i}" for i in range(50)]
        profile = Profile({l: [Peak("10", 1000.0), Peak("11", 1100.0)] for l in loci}, 50.0)
        table = FrequencyTable({l: {"10": 1e-5, "11": 1e-5} for l in loci}, n_individuals=500)
        mio.write_profile_csv(tmp_path / "profile.csv", profile)
        mio.write_frequency_table(tmp_path / "freq.csv", table)
        mio.write_genotype_csv(tmp_path / "poi.csv", {l: Genotype("10", "11") for l in loci})
        (tmp_path / "hp.json").write_text(json.dumps({"noc": 1, "fixed": {"0": "poi.csv"}}))
        (tmp_path / "hd.json").write_text(json.dumps({"noc": 1}))
        out = tmp_path / "lr.json"
        code = main(
            [
                "lr",
                "--profile", str(tmp_path / "profile.csv"),
                "--freq", str(tmp_path / "freq.csv"),
                "--hp", str(tmp_path / "hp.json"),
                "--hd", str(tmp_path / "hd.json"),
                "--engine", "both",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        mle, block = payload["mle"], payload["int"]
        assert mle["log10_lr_ml"] > 308 and mle["lr_ml"] == math.inf
        assert block["log10_lr_int"] > 308 and block["lr_int"] == math.inf
        assert block["marginal_hd"] == 0.0 and -math.inf < block["log10_marginal_hd"] < -308
        assert block["log10_lr_int"] == block["log10_marginal_hp"] - block["log10_marginal_hd"]
        assert "Integrated LR: inf" in capsys.readouterr().out

    def test_lr_warns_on_c2_at_a_bound(self, toy_files, tmp_path, capsys):
        # two balanced peaks from one contributor: c2 fits at its lower bound
        balanced = Profile({"L": [Peak("A", 1000.0), Peak("B", 1000.0)]}, 50.0)
        mio.write_profile_csv(toy_files / "balanced.csv", balanced)
        out = tmp_path / "lr.json"
        code = main(
            [
                "lr",
                "--profile", str(toy_files / "balanced.csv"),
                "--freq", str(toy_files / "freq.csv"),
                "--hp", str(toy_files / "hp.json"),
                "--hd", str(toy_files / "hd.json"),
                "--engine", "mle",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert "the Hd fit's c2 (2) is on the lower bound" in err
        hd = json.loads(out.read_text())["mle"]["hd"]
        assert hd["peak_height_variability_c2"] == 2.0
        assert "c2_lo" in hd["faces"]

    def test_missing_file_is_io_error(self, toy_files, capsys):
        code = main(
            [
                "lr",
                "--profile", "/does/not/exist.csv",
                "--freq", str(toy_files / "freq.csv"),
                "--hp", str(toy_files / "hp.json"),
                "--hd", str(toy_files / "hd.json"),
            ]
        )
        assert code == EXIT_IO

    def test_bad_policy_is_validation_error(self, toy_files, capsys):
        code = main(
            [
                "lr",
                "--profile", str(toy_files / "profile.csv"),
                "--freq", str(toy_files / "freq.csv"),
                "--hp", str(toy_files / "hp.json"),
                "--hd", str(toy_files / "hd.json"),
                "--policy", "bogus",
            ]
        )
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "config",
        [{"split_stutter_variance": True}, {"split_stutter": True}, {"back_stutter": "false"}],
    )
    def test_lr_unknown_config_key_is_validation_error(self, toy_files, config, capsys):
        path = toy_files / "config.json"
        path.write_text(json.dumps(config))
        code = main(
            [
                "lr",
                "--profile", str(toy_files / "profile.csv"),
                "--freq", str(toy_files / "freq.csv"),
                "--hp", str(toy_files / "hp.json"),
                "--hd", str(toy_files / "hd.json"),
                "--config", str(path),
            ]
        )
        assert code == EXIT_VALIDATION
        assert next(iter(config)) in capsys.readouterr().err

    @staticmethod
    def _study(tmp_path, **extra):
        freqs = {"L0": {"10": 0.4, "11": 0.35, "12": 0.25}}
        mio.write_frequency_table(tmp_path / "freq.csv", FrequencyTable(freqs, n_individuals=500))
        spec = {
            "freq": "freq.csv",
            "noc": 1,
            "n_cases": 1,
            "n_nondonors_per_case": 1,
            "n_starts": 1,
            **extra,
        }
        (tmp_path / "study.json").write_text(json.dumps(spec))
        return main(
            ["study", "--config", str(tmp_path / "study.json"), "--seed", "3",
             "--out", str(tmp_path / "study_out")]
        )

    @pytest.mark.parametrize(
        "extra, key",
        [
            ({"n_case": 2}, "n_case"),
            ({"config": {"split_stutter_variance": True}}, "split_stutter_variance"),
            ({"prior": {"template_max": 3000.0}}, "template_max"),
            ({"prior": {"c2_bounds": [50.0, 2.0]}}, "bounds"),
            ({"noc": "1"}, "study config"),
            ({"prior": {"c2": -1}}, "pinned c2"),
        ],
    )
    def test_study_bad_config_is_validation_error(self, tmp_path, extra, key, capsys):
        assert self._study(tmp_path, **extra) == EXIT_VALIDATION
        assert key in capsys.readouterr().err

    def test_study_sets_model_config_and_prior(self, tmp_path, capsys):
        code = self._study(
            tmp_path,
            config={"back_stutter": True},
            prior={"template_hi": 3000.0, "c2": 12.0, "c2_bounds": [4.0, 40.0]},
        )
        assert code == EXIT_OK
        records = mio.read_records_csv(tmp_path / "study_out" / "records.csv")
        assert {r.engine for r in records} == {"MLE", "INT"}
        assert len(records) == 2 * 2

    def test_study_fits_mle_on_the_prior_box(self, tmp_path, capsys):
        assert self._study(tmp_path, prior={"c2": 12.0, "template_hi": 3000.0}) == EXIT_OK
        records = mio.read_records_csv(tmp_path / "study_out" / "records.csv")
        mle = [r for r in records if r.engine == "MLE"]
        assert mle
        for r in mle:
            assert r.c2_hp == r.c2_hd == 12.0
            assert r.converged is not None and r.function_evals > 0
            assert r.c2_on_face is False

    def test_study_and_calibrate_end_to_end(self, tmp_path, capsys):
        freqs = {
            "L0": {"10": 0.4, "11": 0.35, "12": 0.25},
            "L1": {"10": 0.4, "11": 0.35, "12": 0.25},
        }
        table = FrequencyTable(freqs, n_individuals=500)
        mio.write_frequency_table(tmp_path / "freq.csv", table)
        (tmp_path / "study.json").write_text(
            json.dumps(
                {
                    "freq": "freq.csv",
                    "noc": 1,
                    "n_cases": 2,
                    "n_nondonors_per_case": 2,
                    "engines": ["MLE"],
                    "n_starts": 2,
                }
            )
        )
        out = tmp_path / "study_out"
        code = main(
            ["study", "--config", str(tmp_path / "study.json"), "--seed", "3",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        records = mio.read_records_csv(out / "records.csv")
        assert len(records) == 2 * 3
        summary = json.loads((out / "summary.json").read_text())
        assert "MLE/TRUE_DONOR" in summary["groups"]
        # the CSV carries the stamp of the report beside it
        stamp = json.loads((out / "records.csv.meta.json").read_text())
        assert stamp == summary["metadata"] and stamp["seed"] == 3

        # feed the study's non-donor/donor records into the calibration audit
        cal_in = tmp_path / "cal.csv"
        with open(cal_in, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["log10_lr", "label"])
            for r in records:
                label = "HP" if r.donor_label == "TRUE_DONOR" else "HA"
                w.writerow(
                    ["EXCLUSION" if r.log10_lr is None else repr(r.log10_lr), label]
                )
        cal_out = tmp_path / "cal_out"
        code = main(
            ["calibrate", "--records", str(cal_in), "--out", str(cal_out)]
        )
        assert code == EXIT_OK
        assert (cal_out / "calibration_all.csv").exists()
        assert (cal_out / "plotdata_all.csv").exists()
        verdicts = json.loads((cal_out / "verdicts.json").read_text())
        assert verdicts["systems"]["all"]["n_hp"] == 2
        for name in ("calibration_all.csv", "plotdata_all.csv"):
            stamp = json.loads((cal_out / f"{name}.meta.json").read_text())
            assert stamp == verdicts["metadata"]

    @staticmethod
    def _calibrate(tmp_path, rows, *extra):
        path = tmp_path / "cal.csv"
        path.write_text("log10_lr,label\n" + "".join(f"{l},{lab}\n" for l, lab in rows))
        return main(["calibrate", "--records", str(path), "--out", str(tmp_path / "o"), *extra])

    def test_calibrate_beyond_the_float_range(self, tmp_path, capsys):
        rows = [("1.0", "HP"), ("400", "HA"), ("-0.5", "HA")]
        assert self._calibrate(tmp_path, rows) == EXIT_OK
        with open(tmp_path / "o" / "calibration_all.csv", newline="") as fh:
            table = list(csv.DictReader(fh))
        assert [f.name for f in fields(CalibrationBin)] == list(table[0])
        top = table[-1]
        assert (top["lo"], top["count_ha"], top["p_lo"], top["p_hi"]) == (
            "400.0", "1", "1.0", "1.0"
        )

    def test_plotdata_band_is_log10_posterior_odds(self, tmp_path, capsys):
        # the band of bin [16, 17) has p_hi 1.0 in floats, but finite log10 odds
        rows = [("16.2", "HP"), ("16.5", "HA"), ("-0.5", "HA"), ("0.3", "HP"), ("0.4", "HA")]
        assert self._calibrate(tmp_path, rows) == EXIT_OK
        with open(tmp_path / "o" / "plotdata_all.csv", newline="") as fh:
            plot = [{k: float(v) for k, v in r.items()} for r in csv.DictReader(fh)]
        log10_prior = math.log10(2 / 3)
        assert [(r["bin_center"], r["logit_p_lo"], r["logit_p_hi"]) for r in plot] == [
            (0.5, 0.0 + log10_prior, 1.0 + log10_prior),
            (16.5, 16.0 + log10_prior, 17.0 + log10_prior),
        ]

    def test_too_many_calibration_bins_is_validation_error(self, tmp_path, capsys):
        rows = [("1.0", "HP"), ("-0.5", "HA")]
        assert self._calibrate(tmp_path, rows, "--binwidth", "1e-12") == EXIT_VALIDATION
        assert "1500000000001 bins of width 1e-12" in capsys.readouterr().err

    def test_config_hash_ignores_out(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text("log10_lr,label\n1.0,HP\n-0.5,HA\n")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mixlr.__file__))}
        stamps = []
        for out in ("a", "b"):
            subprocess.run(
                [sys.executable, "-m", "mixlr.cli", "calibrate", "--records", str(path),
                 "--out", str(tmp_path / out)],
                env=env, capture_output=True, check=True,
            )
            stamps.append(json.loads((tmp_path / out / "verdicts.json").read_text())["metadata"])
        assert stamps[0] == stamps[1] and "config_hash" in stamps[0]

    def test_empty_calibration_records_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("log10_lr,label\n")
        code = main(["calibrate", "--records", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "lr, extra, shown",
        [
            ("inf", [], "inf"),
            ("nan", [], "nan"),
            ("0.5", ["--binwidth", "inf"], "inf"),
            ("0.5", ["--binwidth", "nan"], "nan"),
        ],
    )
    def test_non_finite_calibration_value_is_validation_error(
        self, tmp_path, lr, extra, shown, capsys
    ):
        path = tmp_path / "cal.csv"
        path.write_text(f"log10_lr,label\n1.0,HP\n{lr},HA\n")
        code = main(["calibrate", "--records", str(path), "--out", str(tmp_path / "o"), *extra])
        assert code == EXIT_VALIDATION
        assert f"got {shown}" in capsys.readouterr().err
