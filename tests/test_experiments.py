import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import cranopt
from cranopt import algorithms
from cranopt.experiments import (
    CSV_HEADER,
    SolutionRecord,
    SweepSpec,
    aggregate_records,
    emit_records,
    run_single,
    run_sweep,
)
from cranopt.scenario import ValidationError

from test_golden import compare_with_golden

REPO = Path(__file__).resolve().parents[1]
SCENARIO = REPO / "scenarios" / "smallcell.json"


def light_scenario():
    """Single-link scenario for fast sweep plumbing tests."""
    return {
        "name": "light",
        "system": {"num_rrh": 1, "num_ue": 1, "antennas_per_rrh": 1},
        "geometry": {"rrh_positions": [[0.0, 0.0]], "ue_positions": [[0.0, 0.005]]},
        "tasks": {"cpu_cycles": 1500, "result_bits": 1000, "deadline": 0.1},
    }


class TestSweepSpec:
    def test_grid_must_increase(self):
        with pytest.raises(ValidationError):
            SweepSpec(param="F", grid=(2.0, 1.0), methods=("joint",), seeds=(1,))

    def test_seeds_distinct(self):
        with pytest.raises(ValidationError):
            SweepSpec(param="F", grid=(1.0,), methods=("joint",), seeds=(1, 1))

    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            SweepSpec(param="F", grid=(1.0,), methods=("magic",), seeds=(1,))

    def test_unknown_param(self):
        with pytest.raises(ValidationError):
            SweepSpec(param="Q", grid=(1.0,), methods=("joint",), seeds=(1,))

    def test_nan_grid_value_is_refused(self):
        # NaN compares false both ways, so the grid passes its order check;
        # the scenario it makes must not.
        with pytest.raises(ValidationError) as err:
            SweepSpec(param="F", grid=(1000.0, math.nan), methods=("joint",), seeds=(1,))
        assert err.value.fieldname == "cpu_cycles"

    def test_user_count_must_be_whole(self):
        with pytest.raises(ValidationError) as err:
            SweepSpec(param="N", grid=(2.5, 3.0), methods=("joint",), seeds=(1,))
        assert err.value.fieldname == "grid"
        SweepSpec(param="N", grid=(2.0, 3.0), methods=("joint",), seeds=(1,))

    @pytest.mark.parametrize("field", ["tasks", "bandwidth", "switched_capacitance"])
    def test_user_count_sweep_rejects_per_ue_lists(self, field):
        # A per-UE list fits one user count only; the sweep is refused before
        # any point runs rather than failing after the N = 2 points.
        doc = {"system": {"num_ue": 2}}
        if field == "tasks":
            doc["tasks"] = [{"cpu_cycles": 1500.0}, {"cpu_cycles": 1000.0}]
        else:
            doc["system"][field] = [1.0, 2.0]
        with pytest.raises(ValidationError) as err:
            SweepSpec(param="N", grid=(2.0, 3.0), methods=("joint",), seeds=(1,),
                      scenario=doc)
        assert err.value.fieldname == field and "expected 3" in str(err.value)
        SweepSpec(param="N", grid=(2.0,), methods=("joint",), seeds=(1,), scenario=doc)
        SweepSpec(param="F", grid=(1000.0, 2000.0), methods=("joint",), seeds=(1,),
                  scenario=doc)


class TestRunSingle:
    def test_deterministic_records(self):
        a = run_single(str(SCENARIO), "joint", 42)
        b = run_single(str(SCENARIO), "joint", 42)
        da, db = asdict(a), asdict(b)
        da.pop("wall_ms")
        db.pop("wall_ms")
        assert da == db
        assert a.scenario == "smallcell"
        assert a.status == "optimal"
        assert a.energy_total_j is not None

    def test_extreme_split_reports_cloud_infeasible(self):
        record = run_single(str(SCENARIO), "separate:0.99", 42)
        assert record.status == "infeasible-cloud"
        assert record.energy_total_j is None

    def test_infeasible_transmit_side_is_named(self):
        record = run_single({"system": {"rrh_power_limit": 1e-6}}, "separate:0.5", 42)
        assert record.status == "infeasible-transmit"
        assert record.energy_total_j is None

    def test_unfinished_transmit_side_keeps_its_status(self, monkeypatch):
        # A transmit side that runs out of rounds is recorded as such, not as
        # infeasible.
        monkeypatch.setattr(algorithms, "MAX_ITERATIONS", 1)
        record = run_single(str(SCENARIO), "separate:0.5", 42)
        assert record.status == "max_iterations"
        assert record.iterations == 1
        assert record.energy_total_j is None

    def test_record_schema(self):
        record = run_single(str(SCENARIO), "joint", 42)
        row = record.csv_row()
        assert len(row) == len(CSV_HEADER)
        assert record.rates_bps and all(r > 0 for r in record.rates_bps)


@pytest.fixture(scope="module")
def small_sweep():
    spec = SweepSpec(param="F", grid=(1000.0, 1500.0, 2000.0),
                     methods=("joint",), seeds=tuple(range(1, 6)),
                     scenario=light_scenario(), scenario_name="light")
    return spec, run_sweep(spec, workers=1)


class TestRunSweep:

    def test_cardinality(self, small_sweep):
        _, records = small_sweep
        assert len(records) == 3 * 1 * 5

    def test_deterministic_order(self, small_sweep):
        _, records = small_sweep
        keys = [(r.value, r.method, r.seed) for r in records]
        assert keys == sorted(keys)

    def test_energy_rises_with_cycles(self, small_sweep):
        _, records = small_sweep
        rows = aggregate_records(records)
        means = [row["energy_mean_j"] for row in rows]
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_failures_recorded_not_raised(self):
        spec = SweepSpec(param="Tmax", grid=(0.001, 0.1), methods=("joint",),
                         seeds=(1,), scenario=light_scenario())
        records = run_sweep(spec, workers=1)
        assert len(records) == 2
        by_value = {r.value: r for r in records}
        assert by_value[0.001].status == "infeasible-deadline"
        assert by_value[0.001].energy_total_j is None
        assert by_value[0.1].status == "optimal"

    def test_worker_pool_gives_the_serial_records(self):
        # Two points on two worker processes, against the same sweep run in
        # this process.
        spec = SweepSpec(param="F", grid=(1000.0, 2000.0), methods=("separate:0.5",),
                         seeds=(1,), scenario=light_scenario())

        def without_wall_time(records):
            return [{k: v for k, v in asdict(r).items() if k != "wall_ms"} for r in records]

        pooled = without_wall_time(run_sweep(spec, workers=2))
        assert len(pooled) == 2 and all(r["status"] == "optimal" for r in pooled)
        assert pooled == without_wall_time(run_sweep(spec, workers=1))


@pytest.fixture(scope="module")
def records():
    spec = SweepSpec(param="F", grid=(1000.0, 2000.0), methods=("joint",),
                     seeds=(1, 2), scenario=light_scenario())
    return run_sweep(spec, workers=1)


class TestEmit:

    def test_csv_line_count(self, records, tmp_path):
        paths = emit_records(records, tmp_path)
        text = (tmp_path / "records.csv").read_text().splitlines()
        assert len(text) == len(records) + 1
        assert text[0] == ",".join(CSV_HEADER)
        assert [p.name for p in paths] == ["records.csv", "records.json", "summary.csv"]

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_records([], tmp_path)

    def test_json_round_trip(self, records, tmp_path):
        emit_records(records, tmp_path)
        with open(tmp_path / "records.json", encoding="utf-8") as fh:
            loaded = [SolutionRecord(**entry) for entry in json.load(fh)]
        assert [asdict(r) for r in loaded] == [asdict(r) for r in records]

    def test_aggregate_order_invariant(self, records):
        forward = aggregate_records(records)
        backward = aggregate_records(list(reversed(records)))
        assert forward == backward


class TestGolden:
    def test_sweep_reproduces_golden_csv(self, tmp_path):
        spec = SweepSpec(param="F", grid=(1000.0, 1500.0),
                         methods=("joint", "separate:0.5"), seeds=(42, 43),
                         scenario=json.loads(SCENARIO.read_text()),
                         scenario_name="smallcell")
        records = run_sweep(spec, workers=1)
        emit_records(records, tmp_path, stable_timing=True)
        problems, _ = compare_with_golden(tmp_path)
        assert not problems, "\n".join(problems)


class TestCli:
    def run_cli(self, *args):
        # A fresh interpreter finds the cranopt this module imported, also
        # when that is an uninstalled checkout's src/.
        path = [str(Path(cranopt.__file__).resolve().parents[1]),
                os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        return subprocess.run([sys.executable, "-m", "cranopt.cli", *args],
                              capture_output=True, text=True, env=env)

    def test_run_json(self, tmp_path):
        out = tmp_path / "record.json"
        result = self.run_cli("run", "--config", str(SCENARIO), "--method",
                              "separate:0.99", "--seed", "42",
                              "--out", str(out))
        assert result.returncode == 0
        record = json.loads(out.read_text())
        assert record["status"] == "infeasible-cloud"

    def test_run_csv_quotes_a_comma_in_the_scenario_name(self, tmp_path):
        config = tmp_path / "cell,a.json"
        config.write_text(json.dumps(light_scenario()))
        out = tmp_path / "record.csv"
        result = self.run_cli("run", "--config", str(config), "--method",
                              "separate:0.5", "--seed", "1", "--format", "csv",
                              "--out", str(out))
        assert result.returncode == 0, result.stderr
        with open(out, newline="", encoding="utf-8") as fh:
            header, row = csv.reader(fh)
        assert header == CSV_HEADER and len(row) == len(CSV_HEADER)
        assert row[0] == "cell,a" and row[2] == "separate:0.5"

    def test_missing_file_is_io_error(self):
        result = self.run_cli("run", "--config", "/nonexistent/x.json",
                              "--method", "joint", "--seed", "1")
        assert result.returncode == 3

    def test_bad_method_is_config_error(self):
        result = self.run_cli("run", "--config", str(SCENARIO),
                              "--method", "wat", "--seed", "1")
        assert result.returncode == 2

    @pytest.mark.parametrize("field,doc", [
        ("cpu_cycles", '{"tasks": {"cpu_cycles": null}}'),
        ("cpu_cycles", '{"tasks": {"cpu_cycles": NaN}}'),
        ("rrh_power_limit", '{"system": {"rrh_power_limit": null}}'),
        ("seed", '{"seed": null}'),
        ("num_rrh", '{"system": {"num_rrh": true}}'),
        ("square_side_km", '{"geometry": {"square_side_km": "x"}}'),
    ])
    def test_malformed_number_is_config_error(self, tmp_path, field, doc):
        config = tmp_path / "bad.json"
        config.write_text(doc)
        result = self.run_cli("run", "--config", str(config), "--method",
                              "separate:0.5", "--seed", "1")
        assert result.returncode == 2, result.stderr
        assert f"configuration error: {field}:" in result.stderr

    @pytest.mark.parametrize("field,doc", [
        ("tasks", '{"tasks": 5}'),
        ("tasks", '{"tasks": [1, 2, 3, 4, 5]}'),
        ("system", '{"system": 3}'),
        ("geometry", '{"geometry": []}'),
    ])
    def test_section_of_the_wrong_type_is_config_error(self, tmp_path, field, doc):
        config = tmp_path / "bad.json"
        config.write_text(doc)
        result = self.run_cli("run", "--config", str(config), "--method",
                              "separate:0.5", "--seed", "1")
        assert result.returncode == 2, result.stderr
        assert f"configuration error: {field}:" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("doc", ["[]", "5", '"x"'])
    def test_document_that_is_not_an_object_is_config_error(self, tmp_path, command, doc):
        config = tmp_path / "bad.json"
        config.write_text(doc)
        args = {"run": ("--method", "joint", "--seed", "1"),
                "sweep": ("--param", "F", "--grid", "1000", "--methods", "joint",
                          "--seeds", "1", "--out", str(tmp_path / "out"))}[command]
        result = self.run_cli(command, "--config", str(config), *args)
        assert result.returncode == 2, result.stderr
        assert "configuration error: document:" in result.stderr
        assert "Traceback" not in result.stderr

    def test_sweep_writes_outputs(self, tmp_path):
        config = tmp_path / "mini.json"
        config.write_text(json.dumps(light_scenario()))
        result = self.run_cli("sweep", "--config", str(config), "--param", "F",
                              "--grid", "1000,2000", "--methods", "joint",
                              "--seeds", "1..2", "--out", str(tmp_path / "out"),
                              "--workers", "1", "--stable-output")
        assert result.returncode == 0, result.stderr
        lines = (tmp_path / "out" / "records.csv").read_text().splitlines()
        assert len(lines) == 5
