import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from cranopt.scenario import (
    Task,
    ValidationError,
    default_config,
    generate_channels,
    load_config,
    path_loss_db,
)


class TestPathLoss:
    def test_reference_distances(self):
        assert path_loss_db(1.0) == pytest.approx(127.0, abs=1e-12)
        assert path_loss_db(0.1) == pytest.approx(102.0, abs=1e-12)
        assert path_loss_db(0.01) == pytest.approx(77.0, abs=1e-12)

    def test_monotone_and_doubling(self):
        rng = np.random.default_rng(1)
        d = np.sort(rng.uniform(0.001, 2.0, 200))
        losses = path_loss_db(d)
        assert np.all(np.diff(losses) > 0)
        step = 25.0 * math.log10(2.0)
        for dist in (0.01, 0.37, 1.4):
            assert path_loss_db(2 * dist) - path_loss_db(dist) == pytest.approx(step)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            path_loss_db(0.0)
        with pytest.raises(ValueError):
            path_loss_db(-1.0)


class TestLoadConfig:
    def test_defaults_from_empty_overrides(self):
        config, tasks = load_config({})
        assert config.num_rrh == 4
        assert config.antennas_per_rrh == 2
        assert config.num_ue == 5
        assert config.rrh_power_limit == (1.0,) * 4
        assert config.clone_capacity_limit == (1e6,) * 5
        assert config.tradeoff == (10.0,) * 5
        assert config.bandwidth == (1e7,) * 5
        assert config.fronthaul_limit == (1e7,) * 4
        assert config.cloud_exponent == (3.0,) * 5
        assert config.switched_capacitance == (1e-11,) * 5
        assert config.stability_epsilon == 1e-10
        assert config.noise_psd_dbm_hz == -100.0
        assert len(tasks) == 5

    def test_negative_power_names_field(self):
        with pytest.raises(ValidationError) as err:
            load_config({"system": {"rrh_power_limit": -1.0}})
        assert err.value.fieldname == "rrh_power_limit"

    def test_cloud_parameters_accepted(self):
        config, _ = load_config(
            {"system": {"cloud_exponent": 3.0, "switched_capacitance": 1e-11}})
        assert config.cloud_exponent == (3.0,) * 5
        assert config.switched_capacitance == (1e-11,) * 5

    def test_system_override_and_unknown_field(self):
        config, _ = load_config({"system": {"num_rrh": 2}})
        assert config.num_rrh == 2
        with pytest.raises(ValidationError):
            load_config({"system": {"bogus_field": 1}})

    def test_path_with_braces(self, tmp_path):
        source = Path(__file__).resolve().parents[1] / "scenarios" / "smallcell.json"
        target = tmp_path / "a{b}" / "s.json"
        target.parent.mkdir()
        shutil.copy(source, target)
        expected = load_config(json.loads(source.read_text(encoding="utf-8")))
        assert load_config(str(target)) == expected
        assert load_config(target) == expected

    @pytest.mark.parametrize("source", [[], 5, None])
    def test_source_neither_object_nor_path_is_refused(self, source):
        # 5 must not be taken for a file descriptor.
        with pytest.raises(ValidationError) as err:
            load_config(source)
        assert err.value.fieldname == "document"

    def test_task_validation(self):
        with pytest.raises(ValidationError):
            Task(cpu_cycles=-1, result_bits=0, deadline=1.0)
        with pytest.raises(ValidationError):
            Task(cpu_cycles=1, result_bits=-2, deadline=1.0)
        t = Task(cpu_cycles=1500, result_bits=0, deadline=0.1)
        assert t.result_bits == 0

    def test_explicit_geometry_roundtrip(self):
        doc = {"system": {"num_rrh": 1, "num_ue": 1},
               "geometry": {"rrh_positions": [[0.0, 0.0]],
                            "ue_positions": [[0.0, 0.5]]}}
        config, _ = load_config(doc)
        assert config.distances_km()[0, 0] == pytest.approx(0.5)


class TestGenerateChannels:
    def test_deterministic(self):
        config, _ = default_config()
        a = generate_channels(config, 42)
        b = generate_channels(config, 42)
        assert np.array_equal(a.gains, b.gains)
        assert np.array_equal(a.noise_power, b.noise_power)
        c = generate_channels(config, 43)
        assert not np.array_equal(a.gains, c.gains)

    def test_noise_power_convention(self):
        # -100 dBm/Hz over 10 MHz: -100 + 70 dBm = -30 dBm = 1e-6 W.
        config, _ = default_config()
        assert np.allclose(config.noise_power, 1e-6, rtol=1e-12)

    def test_coincident_positions_rejected(self):
        doc = {"system": {"num_rrh": 1, "num_ue": 1},
               "geometry": {"rrh_positions": [[0.0, 0.0]],
                            "ue_positions": [[0.0, 0.0]]}}
        config, _ = load_config(doc)
        with pytest.raises(ValueError):
            generate_channels(config, 1)

    def test_mean_gain_at_1km(self):
        # E ||h||^2 / K at d = 1 km is the linear loss 10^-12.7.
        doc = {"system": {"num_rrh": 1, "num_ue": 1, "antennas_per_rrh": 2},
               "geometry": {"rrh_positions": [[0.0, 0.0]],
                            "ue_positions": [[0.0, 1.0]]}}
        config, _ = load_config(doc)
        draws = np.array([
            np.sum(np.abs(generate_channels(config, seed).gains) ** 2) / 2
            for seed in range(10000)])
        assert draws.mean() == pytest.approx(10 ** (-12.7), rel=0.05)

    def test_unit_variance_fading(self):
        doc = {"system": {"num_rrh": 1, "num_ue": 1, "antennas_per_rrh": 4},
               "geometry": {"rrh_positions": [[0.0, 0.0]],
                            "ue_positions": [[0.0, 1.0]]}}
        config, _ = load_config(doc)
        gain = 10 ** (-12.7)
        samples = np.concatenate([
            generate_channels(config, seed).gains.ravel() / math.sqrt(gain)
            for seed in range(4000)])
        assert np.var(samples.real) == pytest.approx(0.5, rel=0.05)
        assert np.var(samples.imag) == pytest.approx(0.5, rel=0.05)
        assert np.mean(np.abs(samples) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_channel_state_immutable(self):
        config, _ = default_config()
        ch = generate_channels(config, 7)
        with pytest.raises(ValueError):
            ch.gains[0, 0, 0] = 0.0
