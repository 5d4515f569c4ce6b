import argparse
import ast
import copy
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import uavcov
import uavcov.cli as cli
import uavcov.interference as interference
import uavcov.validation as validation
from uavcov.cli import _set_by_dotted_path, main
from uavcov.errors import ConfigurationError, NumericalError, UnsupportedGeometryError
from uavcov.scenario import (
    Scenario,
    SimParams,
    dump_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from uavcov.config import FadingConfig, MobilityConfig, NetworkConfig


def small_scenario(**over) -> Scenario:
    kwargs = dict(
        network=NetworkConfig(40.0, 30.0, 10.0, 2, 2.0),
        fading=FadingConfig(1, 1),
        mobility=MobilityConfig(0.2, 10.0, 2.0, 6.0, 10.0),
        psi_grid_db=(-20.0, -10.0, 0.0, 10.0),
        sim=SimParams(n_snapshots=20_000, seed=3, chains=32),
    )
    kwargs.update(over)
    return Scenario(**kwargs)


BASELINE = Path(__file__).resolve().parents[1] / "scenarios" / "baseline.json"


def baseline_with(tmp_path, n_interferers) -> str:
    doc = json.loads(BASELINE.read_text())
    doc["network"]["n_interferers"] = n_interferers
    path = tmp_path / f"baseline_{n_interferers}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def reject(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


@pytest.fixture
def scenario_path(tmp_path):
    path = tmp_path / "scenario.json"
    dump_scenario(small_scenario(), str(path))
    return str(path)


class TestScenarioDocument:
    def test_round_trip_identity(self, tmp_path):
        sc = small_scenario()
        path = tmp_path / "sc.json"
        dump_scenario(sc, str(path))
        again = load_scenario(str(path))
        assert again == sc
        assert scenario_from_dict(scenario_to_dict(again)) == again

    def test_missing_field_names_the_field(self):
        doc = scenario_to_dict(small_scenario())
        del doc["network"]["radius_m"]
        with pytest.raises(ConfigurationError, match="network.radius_m"):
            scenario_from_dict(doc)

    def test_empty_threshold_grid_rejected_before_computation(self):
        doc = scenario_to_dict(small_scenario())
        doc["psi_grid_db"] = []
        with pytest.raises(ConfigurationError, match="non-empty"):
            scenario_from_dict(doc)

    def test_decreasing_grid_rejected(self):
        doc = scenario_to_dict(small_scenario())
        doc["psi_grid_db"] = [0.0, -10.0]
        with pytest.raises(ConfigurationError):
            scenario_from_dict(doc)

    def test_tall_geometry_rejected_with_named_rule(self):
        doc = scenario_to_dict(small_scenario())
        doc["network"]["height_m"] = 45.0
        with pytest.raises(UnsupportedGeometryError, match="height < radius"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("section,key,value", [
        ("network", "n_interferers", 2.5),
        ("network", "n_interferers", True),
        ("fading", "serving_m", "2"),
        ("fading", "interferer_m", 1.5),
        ("sim", "n_snapshots", 2e4 + 0.5),
        ("sim", "stride", "10"),
        ("sim", "seed", 3.25),
        ("sim", "replications", None),
        ("sim", "chains", 16.5),
    ])
    def test_integer_fields_reject_non_integers(self, section, key, value):
        doc = scenario_to_dict(small_scenario())
        doc[section][key] = value
        with pytest.raises(ConfigurationError, match=f"{section}.{key} must be an integer"):
            scenario_from_dict(doc)

    def test_retired_sim_fields_still_load(self):
        """Documents written before campaigns started in the stationary law
        carry sim.warmup_steps and sim.boundary_rule "stay"; both load."""
        doc = scenario_to_dict(small_scenario())
        doc["sim"].update(warmup_steps=10_000, boundary_rule="stay")
        assert scenario_from_dict(doc) == small_scenario()

    def test_replications_fold_into_chains(self, tmp_path, capsys):
        """Documents written when a campaign ran sim.replications sets of
        sim.chains networks load as one set of their product, and are
        written back without replications; absent, it counts as 1, and a
        count below 1 is an input error."""
        doc = scenario_to_dict(small_scenario())
        doc["sim"].update(replications=2, chains=64)
        sc = scenario_from_dict(doc)
        assert sc.sim.chains == 128 == SimParams().chains
        path = tmp_path / "sc.json"
        dump_scenario(sc, str(path))
        assert "replications" not in json.loads(path.read_text())["sim"]
        assert load_scenario(str(path)) == sc
        del doc["sim"]["replications"]
        assert scenario_from_dict(doc).sim.chains == 64
        doc["sim"]["replications"] = 0
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "c")]) == 2
        assert "sim.replications must be >= 1" in capsys.readouterr().err

    def test_band_shape_must_be_an_integer(self):
        doc = scenario_to_dict(small_scenario())
        doc["fading"]["bands"] = [[0.0, 10.0, 1], [10.0, 20.0, 2.5], [20.0, 30.0, 3]]
        with pytest.raises(ConfigurationError, match=r"fading.bands\[1\] shape"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_bands_without_altitude_dependent_exit_2(self, command, tmp_path, capsys):
        doc = scenario_to_dict(small_scenario())
        doc["fading"]["bands"] = [[0.0, 5.0, 3], [5.0, 30.0, 1]]
        path = tmp_path / "bands.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "fading.altitude_dependent" in err

    @pytest.mark.parametrize("section,key,value", [
        ("network", "radius_m", "40"),
        pytest.param("network", "radius_m", 10 ** 400, id="network-radius_m-beyond-float"),
        ("network", "height_m", True),
        ("network", "serving_altitude_m", "10"),
        ("network", "path_loss_exponent", False),
        ("mobility", "speed_min_mps", "0.2"),
        ("mobility", "speed_max_mps", True),
        ("mobility", "dwell_min_s", "2"),
        ("mobility", "dwell_max_s", False),
        ("mobility", "hop_range_m", [10.0]),
        ("mobility", "stay_probability_override", "0.5"),
        ("sim", "dt_s", True),
    ])
    def test_real_fields_reject_non_numbers(self, section, key, value):
        doc = scenario_to_dict(small_scenario())
        doc[section][key] = value
        with pytest.raises(ConfigurationError, match=f"{section}.{key} must be a number"):
            scenario_from_dict(doc)

    def test_thresholds_and_band_edges_reject_non_numbers(self):
        doc = scenario_to_dict(small_scenario())
        doc["psi_grid_db"] = [False, "5", 10]
        with pytest.raises(ConfigurationError, match="psi_grid_db value must be a number"):
            scenario_from_dict(doc)
        doc = scenario_to_dict(small_scenario())
        doc["fading"].update(altitude_dependent=True, bands=[[0.0, "10", 1], [10.0, 30.0, 2]])
        with pytest.raises(ConfigurationError, match=r"fading.bands\[0\] edge must be a number"):
            scenario_from_dict(doc)

    def test_integral_floats_load_as_integers(self):
        doc = scenario_to_dict(small_scenario())
        doc["network"]["n_interferers"] = 2.0
        sc = scenario_from_dict(doc)
        assert sc.network.n_interferers == 2 and type(sc.network.n_interferers) is int

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_altitude_flag_must_be_a_json_boolean(self, value):
        doc = scenario_to_dict(small_scenario())
        doc["fading"]["altitude_dependent"] = value
        with pytest.raises(ConfigurationError, match="fading.altitude_dependent"):
            scenario_from_dict(doc)

    def test_db_conversion_happens_here(self):
        sc = small_scenario()
        assert sc.psi_grid_linear() == pytest.approx([0.01, 0.1, 1.0, 10.0])
        assert sc.psi_grid_linear() is sc.psi_grid_linear()  # converted once


class TestAnalyzeCommand:
    def test_writes_versioned_seven_column_csv(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "coverage.csv"
        assert main(["analyze", "--scenario", scenario_path, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "# uavcov coverage-table v1"
        header = lines[1].split(",")
        assert header == ["psi_db", "psi_linear", "p_cov", "laplace_s",
                          "phi_static", "phi_moving", "status"]
        rows = [l.split(",") for l in lines[2:]]
        assert len(rows) == 4
        assert all(r[-1] == "ok" for r in rows)
        p_cov = [float(r[2]) for r in rows]
        assert all(x > y for x, y in zip(p_cov, p_cov[1:]))

    def test_no_interferers_gives_all_ones(self, tmp_path):
        sc = small_scenario(network=NetworkConfig(40.0, 30.0, 10.0, 0, 2.0))
        path = tmp_path / "m0.json"
        dump_scenario(sc, str(path))
        out = tmp_path / "cov.csv"
        assert main(["analyze", "--scenario", str(path), "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[2:]
        assert all(float(r.split(",")[2]) == 1.0 for r in rows)

    @pytest.mark.parametrize("out", ["missing/x.csv", "."], ids=["missing-dir", "a-dir"])
    def test_unwritable_output_is_input_error(self, scenario_path, tmp_path, capsys, out):
        """A directory that does not exist, or a directory at the output
        path: exit 2 naming the path, and no temporary file left behind."""
        code = main(["analyze", "--scenario", scenario_path, "--out", str(tmp_path / out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot write output ")
        assert list(tmp_path.rglob(".tmp-*.part")) == []

    def test_unreadable_scenario_is_input_error(self, tmp_path, capsys):
        code = main(["analyze", "--scenario", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_tall_geometry_exits_2_naming_rule(self, tmp_path, capsys):
        doc = scenario_to_dict(small_scenario())
        doc["network"]["height_m"] = 60.0
        path = tmp_path / "tall.json"
        path.write_text(json.dumps(doc))
        code = main(["analyze", "--scenario", str(path), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "height < radius" in capsys.readouterr().err

    def test_psi_grid_override(self, scenario_path, tmp_path):
        out = tmp_path / "cov.csv"
        assert main(["analyze", "--scenario", scenario_path, "--out", str(out),
                     "--psi-db", "0"]) == 0
        rows = out.read_text().strip().splitlines()[2:]
        assert len(rows) == 1
        assert rows[0].startswith("0,1,")

    def test_overrides_rebuild_the_scenario_only_when_given(self):
        """With no --psi-db or --seed the loaded scenario comes back as it
        is; each override alone gives the scenario with just that field
        replaced."""
        sc = small_scenario()
        assert cli._apply_overrides(sc, argparse.Namespace()) is sc
        unset = dict(psi_db=None, seed=None)
        assert cli._apply_overrides(sc, argparse.Namespace(**unset)) is sc
        for override, expected in (
                ({"psi_db": "-5,2.5"}, replace(sc, psi_grid_db=(-5.0, 2.5))),
                ({"seed": 9}, replace(sc, sim=replace(sc.sim, seed=9)))):
            got = cli._apply_overrides(sc, argparse.Namespace(**{**unset, **override}))
            assert got == expected and got is not sc, override

    def test_malformed_psi_override_is_input_error(self, scenario_path, tmp_path, capsys):
        code = main(["analyze", "--scenario", scenario_path, "--out", str(tmp_path / "x.csv"),
                     "--psi-db=1,abc"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "abc" in err

    @pytest.mark.parametrize("command", [
        ["analyze", "--out", "x.csv"], ["simulate", "--out", "x"], ["validate"],
        ["sweep", "--out", "x.csv", "--param", "network.n_interferers", "--values", "1"]])
    def test_empty_psi_override_is_input_error(self, scenario_path, tmp_path, capsys, command):
        """An empty --psi-db= is refused like a blank one, never read as no
        override, and nothing is written."""
        command = [str(tmp_path / a) if a.startswith("x") else a for a in command]
        assert main([*command, "--scenario", scenario_path, "--psi-db="]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--psi-db" in err
        assert list(tmp_path.iterdir()) == [Path(scenario_path)]

    @pytest.mark.parametrize("psi_db", ["4000", "0,nan"])
    def test_threshold_without_finite_linear_value_is_input_error(
            self, scenario_path, tmp_path, capsys, psi_db):
        code = main(["analyze", "--scenario", scenario_path, "--out", str(tmp_path / "x.csv"),
                     f"--psi-db={psi_db}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and psi_db.split(",")[-1] in err

    def test_calls_in_one_process_parse_independently(self, scenario_path, tmp_path):
        """The parser is built once per process; a failed parse leaves
        nothing behind for the next call."""
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--scenario", scenario_path, "--out", str(tmp_path / "x.csv"),
                  "--psi-db", "0", "--seed", "not-a-number"])
        assert exc.value.code == 2
        out = tmp_path / "cov.csv"
        assert main(["analyze", "--scenario", scenario_path, "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()[2:]) == 4  # the scenario's grid
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("section,key,value", [
        ("network", "n_interferers", 2.5),
        ("network", "radius_m", "40"),
        ("fading", "altitude_dependent", "false"),
    ])
    def test_mistyped_field_is_input_error(self, tmp_path, capsys, section, key, value):
        doc = scenario_to_dict(small_scenario())
        doc[section][key] = value
        path = tmp_path / "mistyped.json"
        path.write_text(json.dumps(doc))
        code = main(["analyze", "--scenario", str(path), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{section}.{key}" in err
        assert not (tmp_path / "x.csv").exists()

    def test_json_output(self, scenario_path, tmp_path):
        out_csv = tmp_path / "cov.csv"
        out_json = tmp_path / "cov.json"
        assert main(["analyze", "--scenario", scenario_path, "--out", str(out_csv),
                     "--json", str(out_json)]) == 0
        doc = json.loads(out_json.read_text())
        assert doc["format"] == "uavcov coverage-table v1"
        assert len(doc["rows"]) == 4


    def test_failed_rows_are_null_in_strict_json(self, scenario_path, tmp_path,
                                                 monkeypatch):
        """A row whose evaluation failed has no coverage or phase factors:
        the JSON table writes null for them, never a bare NaN."""
        sweep = cli.coverage_sweep

        def last_row_fails(psi_values, *args):
            swept = sweep(psi_values, *args)
            failed = [np.append(column[:-1], math.nan) for column in
                      (swept.coverage, swept.phi_static, swept.phi_moving)]
            return replace(swept, coverage=failed[0], phi_static=failed[1],
                           phi_moving=failed[2],
                           errors=swept.errors[:-1] + ["NumericalError: planted"])

        monkeypatch.setattr(cli, "coverage_sweep", last_row_fails)
        out_json = tmp_path / "cov.json"
        assert main(["analyze", "--scenario", scenario_path, "--out",
                     str(tmp_path / "cov.csv"), "--json", str(out_json)]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        rows = json.loads(out_json.read_text(), parse_constant=reject)["rows"]
        assert [r["p_cov"] is None for r in rows] == [False, False, False, True]
        assert rows[-1]["phi_static"] is None and rows[-1]["phi_moving"] is None
        assert rows[-1]["status"].startswith("NumericalError")
        assert all(0.0 < r["p_cov"] < 1.0 for r in rows[:-1])


    @pytest.mark.parametrize("name, overrides", [
        ("baseline", []),
        ("baseline", ["--psi-db=-4000,0,3080"]),  # failed rows: s0 = 0 and s0 = inf
    ])
    def test_csv_and_json_tables_agree_row_for_row(self, name, overrides, tmp_path):
        """The two writers of one table: the same psi_db and status, and
        every number at the CSV's precision, null in the JSON where the CSV
        has nan or inf."""
        path = Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.json"
        out_csv, out_json = tmp_path / "cov.csv", tmp_path / "cov.json"
        assert main(["analyze", "--scenario", str(path), "--out", str(out_csv),
                     "--json", str(out_json), *overrides]) == 0
        lines = out_csv.read_text().splitlines()
        header, csv_rows = lines[1].split(","), [line.split(",") for line in lines[2:]]
        json_rows = json.loads(out_json.read_text(), parse_constant=reject)["rows"]
        assert len(csv_rows) == len(json_rows) > 0
        for fields, row in zip(csv_rows, json_rows):
            assert fields[0] == f"{row['psi_db']:.10g}" and fields[-1] == row["status"]
            for key, field in zip(header[1:-1], fields[1:-1]):
                value = row[key]
                assert (field in ("nan", "inf")) if value is None else (
                    field == f"{value:.12g}"), (key, field, value)

    @pytest.mark.parametrize("command", [
        ["analyze"],
        ["sweep", "--param", "network.n_interferers", "--values", "2,3"],
    ], ids=["analyze", "sweep"])
    def test_altitude_dependent_fading_is_input_error(self, command, tmp_path, capsys):
        """The analysis has no curve under altitude-dependent fading, so a
        table of the constant-shape curve would be a wrong answer marked ok:
        the command names the field, exits 2 and writes nothing."""
        path = Path(__file__).resolve().parents[1] / "scenarios" / "altitude_fading.json"
        out = tmp_path / "cov.csv"
        code = main([command[0], "--scenario", str(path), "--out", str(out), *command[1:]])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "fading.altitude_dependent" in err
        assert not out.exists()

    def test_overflowing_transform_argument_is_null_in_strict_json(self, tmp_path):
        """At 3080 dB the threshold is finite but s0 = m0 psi h0^alpha is
        not: the row fails, the JSON table writes null for its s0, and
        nothing warns on the way."""
        out_json = tmp_path / "cov.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", "--scenario", str(BASELINE), "--out",
                         str(tmp_path / "cov.csv"), "--json", str(out_json),
                         "--psi-db", "0,3080"]) == 0
        rows = json.loads(out_json.read_text(), parse_constant=reject)["rows"]
        assert rows[0]["laplace_s"] == 100.0 and rows[0]["status"] == "ok"
        assert rows[1]["laplace_s"] is None and rows[1]["p_cov"] is None
        assert rows[1]["status"].startswith("NumericalError")


class TestOneKernelPass:
    """`analyze` takes every number it prints from one kernel pass."""

    @pytest.mark.parametrize("n_interferers", [2, 0])
    def test_analyze_calls_the_kernel_once(self, tmp_path, monkeypatch, n_interferers):
        kernel, calls = interference.scaled_phase_jets, []

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(interference, "scaled_phase_jets", counted)
        out = tmp_path / "cov.csv"
        assert main(["analyze", "--scenario", baseline_with(tmp_path, n_interferers),
                     "--out", str(out)]) == 0
        assert len(calls) == 1
        rows = [r.split(",") for r in out.read_text().strip().splitlines()[2:]]
        assert len(rows) == 11 and all(r[-1] == "ok" for r in rows)

    def test_no_interferers_overflowing_transform_argument_is_a_failed_row(self, tmp_path):
        out = tmp_path / "cov.csv"
        assert main(["analyze", "--scenario", baseline_with(tmp_path, 0), "--out", str(out),
                     "--psi-db", "0,3080"]) == 0
        rows = [r.split(",") for r in out.read_text().strip().splitlines()[2:]]
        assert rows[0][2] == "1" and rows[0][-1] == "ok"
        assert rows[1][3] == "inf" and rows[1][-1].startswith("NumericalError")


class TestSimulateCommand:
    def test_byte_identical_reruns(self, scenario_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--scenario", scenario_path, "--out", str(out1)]) == 0
        assert main(["simulate", "--scenario", scenario_path, "--out", str(out2)]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a_histograms.csv").read_bytes() == \
            (tmp_path / "b_histograms.csv").read_bytes()

    def test_summary_contents(self, scenario_path, tmp_path):
        out = tmp_path / "camp"
        assert main(["simulate", "--scenario", scenario_path, "--out", str(out)]) == 0
        doc = json.loads((tmp_path / "camp.json").read_text())
        assert doc["format"] == "uavcov campaign-summary v1"
        assert len(doc["coverage"]) == 4
        assert isinstance(doc["analytical_coverage"], list)
        assert doc["n_snapshots"] >= 20_000
        # a tally of snapshots, written as integers like n_snapshots
        assert all(type(c) is int for c in doc["dwelling_count_hist"])
        assert sum(doc["dwelling_count_hist"]) == doc["n_snapshots"]
        hist_lines = (tmp_path / "camp_histograms.csv").read_text().splitlines()
        assert hist_lines[0] == "# uavcov histograms v1"
        assert any(l.startswith("dwelling_count,") for l in hist_lines)

    def test_undefined_statistics_are_null_in_strict_json(self, tmp_path):
        """With no interferers the dwelling fraction and the hop length are
        undefined, and the standard errors of the coverage are 0 (every chain
        is covered at every threshold): the summary writes null for the
        undefined ones, the dwelling fraction's SE included, never a bare
        NaN."""
        sc = small_scenario(
            network=NetworkConfig(40.0, 30.0, 10.0, 0, 2.0),
            sim=SimParams(n_snapshots=64, seed=3, chains=8),
        )
        path = tmp_path / "m0.json"
        dump_scenario(sc, str(path))
        out = tmp_path / "camp"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        doc = json.loads((tmp_path / "camp.json").read_text(), parse_constant=reject)
        assert doc["dwelling_fraction"] is None and doc["dwelling_fraction_se"] is None
        assert doc["mean_interior_hop_length"] is None
        assert doc["coverage"] == [1.0] * 4
        assert doc["coverage_se"] == [0.0] * 4

    def test_single_chain_leaves_standard_errors_null(self, tmp_path):
        """One chain has no spread between chains, so no standard errors."""
        sc = small_scenario(sim=SimParams(n_snapshots=8, seed=3, chains=1))
        path = tmp_path / "one.json"
        dump_scenario(sc, str(path))
        out = tmp_path / "camp"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        doc = json.loads((tmp_path / "camp.json").read_text(), parse_constant=reject)
        assert doc["coverage_se"] == [None] * 4
        assert doc["dwelling_fraction_se"] is None
        assert 0.0 <= doc["dwelling_fraction"] <= 1.0

    def test_failed_analysis_rows_are_null_in_strict_json(self, tmp_path, monkeypatch):
        """A NumericalError planted in the kernel at 120 and 200 dB fails those
        analysis rows; the simulation still runs and its analytical column
        writes null for those thresholds."""
        kernel = interference.scaled_phase_jets

        def failing_above_100_db(s, m, order, net):
            coeffs, failures = kernel(s, m, order, net)
            planted = NumericalError("planted kernel failure, derivative order k=1")
            return coeffs, [planted if si > 1e17 else f for si, f in zip(s, failures)]

        monkeypatch.setattr(interference, "scaled_phase_jets", failing_above_100_db)
        sc = small_scenario(
            network=NetworkConfig(40.0, 30.0, 10.0, 8, 7.5),
            fading=FadingConfig(14, 6),
            psi_grid_db=(0.0, 120.0, 200.0),
            sim=SimParams(n_snapshots=256, seed=3, chains=16),
        )
        path = tmp_path / "steep.json"
        dump_scenario(sc, str(path))
        out = tmp_path / "camp"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        doc = json.loads((tmp_path / "camp.json").read_text(), parse_constant=reject)
        analytical = doc["analytical_coverage"]
        assert analytical[1:] == [None, None]
        assert 0.0 < analytical[0] < 1.0
        assert (tmp_path / "camp_histograms.csv").exists()

    def test_retired_sim_fields_run(self, tmp_path):
        doc = scenario_to_dict(small_scenario(sim=SimParams(n_snapshots=64, seed=3, chains=8)))
        doc["sim"].update(warmup_steps=10_000, boundary_rule="stay")
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "c")]) == 0
        summary = json.loads((tmp_path / "c.json").read_text())
        assert "warmup_steps" not in summary["meta"]
        assert "warmup_steps" not in summary["scenario"]["sim"]

    def test_altitude_dependent_marks_analysis_na(self, tmp_path):
        sc = small_scenario(fading=FadingConfig(1, 1, altitude_dependent=True))
        path = tmp_path / "alt.json"
        dump_scenario(sc, str(path))
        out = tmp_path / "camp"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
        doc = json.loads((tmp_path / "camp.json").read_text())
        assert doc["analytical_coverage"] == "n/a (simulation-only)"


class TestValidateCommand:
    def test_default_scenario_passes(self, tmp_path, capsys):
        sc = small_scenario(sim=SimParams(n_snapshots=60_000, seed=5, chains=100))
        path = tmp_path / "v.json"
        dump_scenario(sc, str(path))
        code = main(["validate", "--scenario", str(path)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "[PASS]" in out and "[FAIL]" not in out
        assert "[PASS] stationary-start" in out

    @pytest.mark.parametrize("name", ["baseline", "altitude_fading"])
    def test_shipped_scenario_passes_every_check_in_order(self, name, capsys):
        path = Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.json"
        code = main(["validate", "--scenario", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0, lines
        checks = ["trivial-anchors", "hyp2f1-consistency", "distribution-laws",
                  "closed-vs-quadrature", "gl-vs-quad", "kernel-batch-vs-row",
                  "ladder-vs-row-edges", "binomial-collapse", "derivative-jet",
                  "event-tape", "stationary-start", "buffered-snapshots",
                  "analysis-vs-simulation", "steady-state-mobility"]
        assert [line.split(":")[0] for line in lines] == [f"[PASS] {c}" for c in checks] + [
            "all 14 checks passed"]

    def test_no_interferers_runs_every_check(self, tmp_path, capsys):
        """With no interferers L_I is identically 1: the derivative check's
        central differences are 0 and are compared absolutely."""
        doc = json.loads(BASELINE.read_text())
        doc["network"]["n_interferers"] = 0
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        code = main(["validate", "--scenario", str(path)])
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert code == 0, lines
        assert len(lines) == 15 and all(line.startswith("[PASS] ") for line in lines[:14])
        assert lines[-1] == "all 14 checks passed"
        assert "Traceback" not in captured.err

    def test_altitude_fading_scenario_checks_steady_state_mobility(self, capsys):
        """The mobility law does not depend on fading, so the campaign runs
        and is checked even where the analytical comparison is skipped."""
        path = Path(__file__).resolve().parents[1] / "scenarios" / "altitude_fading.json"
        code = main(["validate", "--scenario", str(path)])
        out = capsys.readouterr().out
        assert code == 0, out
        line = next(l for l in out.splitlines() if "steady-state-mobility" in l)
        assert line.startswith("[PASS] steady-state-mobility: dwelling"), line
        assert "[PASS] analysis-vs-simulation: skipped" in out

    def test_threshold_with_no_transform_argument_fails_its_checks(self, capsys):
        """At -4000 dB the linear threshold, and its s0, round to 0: the
        checks that evaluate the analysis there fail, each naming that row,
        and every other check still runs and passes."""
        code = main(["validate", "--scenario", str(BASELINE), "--psi-db=-4000,0,10"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1, lines
        assert len(lines) == 15 and lines[-1] == "3/14 checks failed"
        failed = {line.split(":")[0][len("[FAIL] "):]: line for line in lines
                  if line.startswith("[FAIL] ")}
        assert sorted(failed) == ["analysis-vs-simulation", "closed-vs-quadrature",
                                  "gl-vs-quad"]
        assert "needs s/m > 0, got s=0, m=1" in failed["closed-vs-quadrature"]
        assert "needs s/m > 0, got s=0, m=1" in failed["gl-vs-quad"]
        assert "must be > 0 (linear), got 0.0" in failed["analysis-vs-simulation"]
        assert all(line.startswith("[PASS] ") for line in lines[:-1]
                   if not line.startswith("[FAIL] "))

    def test_injected_fault_fails_closed_vs_quadrature(self, tmp_path, capsys, monkeypatch):
        real = validation.closed_phase_factor
        monkeypatch.setattr(validation, "closed_phase_factor",
                            lambda *args: real(*args) + 1e-3)
        sc = small_scenario(sim=SimParams(n_snapshots=30_000, seed=5, chains=100))
        path = tmp_path / "v.json"
        dump_scenario(sc, str(path))
        code = main(["validate", "--scenario", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "[FAIL] closed-vs-quadrature" in out

    def test_thresholds_at_3000_db_fail_without_a_traceback(self, tmp_path, capsys):
        """At -3000 dB the closed form overflows (s0 = 1e-298) and at +3000 dB
        the second difference's step squared would (s0 = 1e302): the closed
        form's points are listed as not compared and fail their check, and
        every check prints its line."""
        doc = json.loads(BASELINE.read_text())
        doc["psi_grid_db"] = [-3000, 3000]
        doc["sim"]["n_snapshots"] = 30_000
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(doc))
        code = main(["validate", "--scenario", str(path)])
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert code == 1, lines
        assert len(lines) == 15 and lines[-1].endswith("/14 checks failed"), lines
        line = next(l for l in lines if "closed-vs-quadrature" in l)
        assert line.startswith("[FAIL] ") and "closed form failed, not compared: static m=1" in line
        assert next(l for l in lines if "derivative-jet" in l).startswith("[PASS] ")
        assert "Traceback" not in captured.err

    def test_campaign_without_interior_hops_passes(self, tmp_path, capsys):
        """With dwells of 0 s no interferer makes an interior hop, so the
        mean hop length is undefined: the mobility line reports it as n/a
        and every check passes."""
        doc = json.loads(BASELINE.read_text())
        doc["mobility"].update(dwell_min_s=0.0, dwell_max_s=0.0)
        doc["sim"]["n_snapshots"] = 30_000
        path = tmp_path / "no_dwell.json"
        path.write_text(json.dumps(doc))
        code = main(["validate", "--scenario", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0 and lines[-1] == "all 14 checks passed", lines
        line = next(l for l in lines if "steady-state-mobility" in l)
        assert line.endswith("; hop mean n/a (no interior hops)"), line

    def test_minimum_campaign_comes_from_the_floors_and_the_binomial_se(self):
        """The coverage check's floor, 0.015, must hold 5 binomial SEs at
        p = 1/2: N >= (5 / 0.015)^2 / 4; the dwelling fraction's, 0.01, 4
        SEs of p_stay (1 - p_stay) / (N M).  No interferers, no minimum."""
        assert validation.min_campaign_snapshots(0, 0.5) == 1
        assert validation.min_campaign_snapshots(2, 0.5) == math.ceil((5 / 0.015) ** 2 / 4)
        assert validation.min_campaign_snapshots(1, 0.5) == 40_000
        assert validation.min_campaign_snapshots(8, 0.0) == 27_778

    def test_campaign_too_short_for_its_checks_is_input_error(self, tmp_path, capsys):
        """One snapshot below the minimum, `validate` refuses the scenario
        before any check runs, with an `error:` line naming the minimum."""
        doc = json.loads(BASELINE.read_text())
        doc["sim"]["n_snapshots"] = 27_777
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: validate needs sim.n_snapshots >= 27778 with 2 "
                                       "interferers"), captured.err


@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_stay_probability_override_the_kinematics_cannot_give_is_input_error(
        tmp_path, capsys, command):
    """A simulation runs the kinematic stay probability; an override that
    differs from it would be reported next to a dwelling fraction that
    contradicts it, so it is rejected, naming both values."""
    from uavcov.config import kinematic_stay_probability

    sc = small_scenario(
        mobility=MobilityConfig(0.2, 10.0, 2.0, 6.0, 10.0, stay_probability_override=0.9),
        sim=SimParams(n_snapshots=64, seed=3, chains=8))
    path = tmp_path / "override.json"
    dump_scenario(sc, str(path))
    args = ["--scenario", str(path)] + (["--out", str(tmp_path / "c")]
                                        if command == "simulate" else [])
    assert main([command] + args) == 2
    err = capsys.readouterr().err
    p = kinematic_stay_probability(sc.mobility, sc.network)
    assert err.startswith("error:") and "0.9" in err and repr(p) in err
    assert not (tmp_path / "c.json").exists()


def test_simulate_reports_the_kinematic_stay_probability(tmp_path):
    from uavcov.config import kinematic_stay_probability

    mob = MobilityConfig(0.2, 10.0, 2.0, 6.0, 10.0)
    p = kinematic_stay_probability(mob, NetworkConfig(40.0, 30.0, 10.0, 2, 2.0))
    sc = small_scenario(
        mobility=MobilityConfig(0.2, 10.0, 2.0, 6.0, 10.0, stay_probability_override=p),
        sim=SimParams(n_snapshots=64, seed=3, chains=8))
    path = tmp_path / "same.json"
    dump_scenario(sc, str(path))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "c")]) == 0
    assert json.loads((tmp_path / "c.json").read_text())["stay_probability"] == p


@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_negative_seed_flag_is_input_error(scenario_path, tmp_path, capsys, command):
    out = ["--out", str(tmp_path / "o")] if command == "simulate" else []
    assert main([command, "--scenario", scenario_path, *out, "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: sim.seed must be >= 0, got -1")


def test_negative_seed_field_is_input_error(tmp_path, capsys):
    doc = scenario_to_dict(small_scenario())
    doc["sim"]["seed"] = -1
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: sim.seed must be >= 0, got -1")


def test_boundary_rule_other_than_stay_is_input_error(tmp_path, capsys):
    doc = scenario_to_dict(small_scenario())
    doc["sim"]["boundary_rule"] = "resample"
    path = tmp_path / "resample.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "sim.boundary_rule" in err and "'resample'" in err


NON_FINITE_FIELDS = [("network", "radius_m"), ("network", "height_m"),
                     ("network", "serving_altitude_m"), ("network", "path_loss_exponent"),
                     ("mobility", "speed_min_mps"), ("mobility", "speed_max_mps"),
                     ("mobility", "dwell_min_s"), ("mobility", "dwell_max_s"),
                     ("mobility", "hop_range_m"), ("sim", "dt_s")]


def edge_scenarios():
    """The edge grid, each at a small n_snapshots: every combination of M in
    {0, 1}, dwells of 2-6 s, 4-4 s and 0-0 s, h0 below H and at H, alpha in
    {2, 4}, a stay override of none, 0 and 1, and a single threshold or the
    pair of -3000 and 3000 dB; then each float field of NON_FINITE_FIELDS
    set to Infinity, -Infinity and NaN, which must be refused (exit 2)."""
    base = scenario_to_dict(small_scenario(
        sim=SimParams(n_snapshots=8, seed=3, chains=4)))
    for M, dwell, h0, alpha, stay, psi_db in itertools.product(
            (0, 1), ((2.0, 6.0), (4.0, 4.0), (0.0, 0.0)), (10.0, 30.0), (2.0, 4.0),
            (None, 0.0, 1.0), ([0.0], [-3000.0, 3000.0])):
        doc = copy.deepcopy(base)
        doc["network"].update(n_interferers=M, serving_altitude_m=h0, path_loss_exponent=alpha)
        doc["mobility"].update(dwell_min_s=dwell[0], dwell_max_s=dwell[1],
                               stay_probability_override=stay)
        doc["psi_grid_db"] = psi_db
        yield f"M={M} dwell={dwell} h0={h0} alpha={alpha} stay={stay} psi_db={psi_db}", doc, (0, 2)
    for (section, key), value in itertools.product(
            NON_FINITE_FIELDS, (math.inf, -math.inf, math.nan)):
        doc = copy.deepcopy(base)
        doc[section][key] = value
        yield f"{section}.{key}={value}", doc, (2,)


@pytest.mark.parametrize("command", [
    ["simulate"], ["analyze"], ["sweep", "--param", "network.n_interferers", "--values", "0,1"],
], ids=["simulate", "analyze", "sweep"])
def test_edge_grid_exits_0_or_with_an_input_error(tmp_path, capsys, command):
    """Every scenario of the edge grid runs (exit 0) or is refused with an
    `error:` line (exit 2), each as the grid allows; none ends in a traceback."""
    path, out = tmp_path / "edge.json", str(tmp_path / "out")
    codes, wrong = [], []
    for name, doc, allowed in edge_scenarios():
        path.write_text(json.dumps(doc))
        try:
            code = main([command[0], "--scenario", str(path), "--out", out, *command[1:]])
        except Exception as exc:
            wrong.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        err = capsys.readouterr().err
        codes.append(code)
        if code not in allowed or (code == 2 and not err.startswith("error:")):
            wrong.append(f"{name}: exit {code}, {err!r}")
    assert not wrong, "\n".join(wrong)
    assert 0 in codes



def test_validate_on_the_edge_grid_prints_its_checks_or_an_input_error(tmp_path, capsys):
    """`validate` on eight scenarios of the edge grid: M in {0, 1}, dwells
    of 2-6 s at exponent 2 and of 0 s at exponent 4, and one threshold or
    the pair -3000 and 3000 dB, each with the grid's 8 snapshots on 4
    chains.  Each exits 0 with every check passed, exits 1 with every
    check's line printed, or exits 2 with an `error:` line; none ends in a
    traceback.  With M = 1, 8 snapshots are too few for the campaign checks
    (min_campaign_snapshots), so those exit 2; with M = 0 the checks run,
    on campaigns that observe buffers 0 interferers wide."""
    picked = [(name, doc) for name, doc, _ in edge_scenarios()
              if doc["network"]["n_interferers"] in (0, 1)
              and doc["network"]["serving_altitude_m"] == 10.0
              and doc["mobility"]["stay_probability_override"] is None
              and (doc["mobility"]["dwell_min_s"], doc["network"]["path_loss_exponent"])
              in ((2.0, 2.0), (0.0, 4.0))]
    assert len(picked) == 8
    path, codes, wrong = tmp_path / "edge.json", [], []
    for name, doc in picked:
        path.write_text(json.dumps(doc))
        try:
            code = main(["validate", "--scenario", str(path)])
        except Exception as exc:
            wrong.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        codes.append(code)
        printed = {0: lines[-1:] == ["all 14 checks passed"],
                   1: bool(lines) and lines[-1].endswith("/14 checks failed"),
                   2: captured.err.startswith("error:")}
        too_short = doc["network"]["n_interferers"] == 1
        if not printed.get(code) or (code < 2 and len(lines) != 15) \
                or "Traceback" in captured.err or too_short != (code == 2):
            wrong.append(f"{name}: exit {code}, {lines[-1:]}, {captured.err!r}")
    assert not wrong, "\n".join(wrong)
    assert {0, 1} <= set(codes)

class TestSweepCommand:
    def test_sweep_over_interferer_count(self, scenario_path, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--scenario", scenario_path, "--out", str(out),
                     "--param", "network.n_interferers", "--values", "2,5",
                     "--psi-db=-10,0,10"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "# uavcov sweep-table v1"
        rows = [l.split(",") for l in lines[2:]]
        assert len(rows) == 6
        by_value = {v: [float(r[4]) for r in rows if r[1] == v] for v in ("2", "5")}
        assert all(five <= two for two, five in zip(by_value["2"], by_value["5"]))

    def test_malformed_value_is_input_error(self, scenario_path, tmp_path, capsys):
        """A table, here the band table whose value is null, is no number to
        sweep: refused by name, not cast to a float the loader rejects."""
        code = main(["sweep", "--scenario", scenario_path, "--out", str(tmp_path / "s.csv"),
                     "--param", "fading.bands", "--values", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: fading.bands is not sweepable")
        assert not (tmp_path / "s.csv").exists()

    def test_null_stay_override_sweeps_floats(self, scenario_path, tmp_path):
        doc = scenario_to_dict(small_scenario())
        assert doc["mobility"]["stay_probability_override"] is None
        _set_by_dotted_path(doc, "mobility.stay_probability_override", "0.25")
        assert doc["mobility"]["stay_probability_override"] == 0.25
        out = tmp_path / "o.csv"
        assert main(["sweep", "--scenario", scenario_path, "--out", str(out), "--param",
                     "mobility.stay_probability_override", "--values", "0.1,0.9",
                     "--psi-db=0"]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert [row[1] for row in rows] == ["0.1", "0.9"]
        assert rows[0][4] != rows[1][4]

    def test_unknown_field_is_input_error(self, scenario_path, tmp_path, capsys):
        code = main(["sweep", "--scenario", scenario_path,
                     "--out", str(tmp_path / "s.csv"),
                     "--param", "network.wingspan", "--values", "1"])
        assert code == 2
        assert "unknown scenario field" in capsys.readouterr().err


    def test_uncastable_value_is_input_error(self, scenario_path, tmp_path, capsys):
        code = main(["sweep", "--scenario", scenario_path, "--out", str(tmp_path / "y.csv"),
                     "--param", "network.n_interferers", "--values", "2.5"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "2.5" in err


    def test_boolean_values_parse_strictly(self, scenario_path, tmp_path, capsys):
        doc = scenario_to_dict(small_scenario())
        for value, parsed in (("TRUE", True), ("1", True), ("False", False), ("0", False)):
            _set_by_dotted_path(doc, "fading.altitude_dependent", value)
            assert doc["fading"]["altitude_dependent"] is parsed
        out = tmp_path / "b.csv"
        code = main(["sweep", "--scenario", scenario_path, "--out", str(out),
                     "--param", "fading.altitude_dependent", "--values", "tru,yes,false"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'tru'" in err
        assert not out.exists()


def test_init_writes_loadable_template(tmp_path):
    out = tmp_path / "template.json"
    assert main(["init", "--out", str(out)]) == 0
    sc = load_scenario(str(out))
    assert sc.network.radius == 40.0


def test_cli_import_leaves_out_the_validation_suite(tmp_path):
    """Only `validate` needs the suite, and only `simulate` and `validate`
    the simulator: `import uavcov` loads no module of the package and no
    numpy; importing the CLI loads neither the suite, nor the simulator,
    nor the closed-form oracle (uavcov.special), nor the unused jet
    arithmetic (uavcov.taylor); `analyze`, `sweep` and `init` leave the
    simulator unloaded, and `simulate` loads it.  No module of the package
    imports scipy (read from the source), and every command runs where
    scipy cannot be imported at all."""
    src = os.path.dirname(os.path.dirname(uavcov.__file__))
    for path in Path(uavcov.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "scipy"], (path, names)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def run(code):
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=120).stdout

    code = ("import sys, uavcov; print(sorted(m for m in sys.modules "
            "if m == 'numpy' or m.startswith(('numpy.', 'uavcov.'))))")
    assert run(code).strip() == "[]"
    code = ("import sys, uavcov.cli; print([m for m in ('uavcov.validation', "
            "'uavcov.simulator', 'uavcov.special', 'uavcov.taylor', 'scipy.stats', 'scipy') "
            "if m in sys.modules])")
    assert run(code).strip() == "[]"
    baseline = Path(__file__).resolve().parents[1] / "scenarios" / "baseline.json"
    small = tmp_path / "small.json"
    dump_scenario(small_scenario(sim=SimParams(n_snapshots=64, seed=3, chains=16)), str(small))
    out_csv, sweep_csv = tmp_path / "cov.csv", tmp_path / "sweep.csv"
    argvs = [
        ["analyze", "--scenario", str(baseline), "--out", str(out_csv)],
        ["sweep", "--scenario", str(baseline), "--out", str(sweep_csv),
         "--param", "network.n_interferers", "--values", "1,3"],
        ["init", "--out", str(tmp_path / "template.json")],
        ["simulate", "--scenario", str(small), "--out", str(tmp_path / "camp")],
    ]
    # each command's exit code, and whether uavcov.simulator is loaded after it
    code = ("import sys; sys.modules['scipy'] = None; from uavcov.cli import main; "
            f"print([(main(argv), 'uavcov.simulator' in sys.modules) for argv in {argvs!r}])")
    assert run(code).splitlines()[-1] == "[(0, False), (0, False), (0, False), (0, True)]"
    assert len(out_csv.read_text().splitlines()) == 2 + 11
    assert len(sweep_csv.read_text().splitlines()) == 2 + 2 * 11
    assert json.loads((tmp_path / "camp.json").read_text())["n_snapshots"] == 64
    code = ("import sys; sys.modules['scipy'] = None; from uavcov.cli import main; "
            f"sys.exit(main(['validate', '--scenario', {str(baseline)!r}]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[-1] == "all 14 checks passed"


def test_analysis_loads_neither_masked_arrays_nor_polynomials(tmp_path):
    """The kernel finds its Gauss-Legendre rules without numpy's eigensolver
    (numpy.polynomial, which starts OpenBLAS) and its panel edges without
    np.unique (numpy.ma): `analyze` at exponent 3, where every row goes
    through the kernel, loads neither."""
    src = os.path.dirname(os.path.dirname(uavcov.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    path = tmp_path / "alpha3.json"
    dump_scenario(small_scenario(network=NetworkConfig(40.0, 30.0, 10.0, 2, 3.0),
                                 fading=FadingConfig(2, 2)), str(path))
    code = ("import sys; from uavcov.cli import main; "
            f"code = main(['analyze', '--scenario', {str(path)!r}, "
            f"'--out', {str(tmp_path / 'cov.csv')!r}]); "
            "print([m for m in ('numpy.ma', 'numpy.polynomial') if m in sys.modules]); "
            "sys.exit(code)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip().splitlines()[-1] == "[]"
    assert len((tmp_path / "cov.csv").read_text().splitlines()) == 2 + 4
