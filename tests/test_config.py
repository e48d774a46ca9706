import dataclasses

import numpy as np
import pytest

from gch import ConfigError, ExperimentConfig, config_hash, parse_config

MINIMAL = """
[grid]
n = 1024
L = 40
[time]
T = 0.5
[initial]
kind = sech2
amplitude = 0.05
"""


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.n == 1024
        assert cfg.L == 40.0
        assert cfg.T == 0.5
        assert cfg.amplitude == 0.05
        assert cfg.snapshot_stride == 1
        assert cfg.dt is None
        assert np.isinf(cfg.p)
        assert cfg.run == ()
        assert cfg.resolved_window() == (10.0, 20.0)

    def test_power_of_two_enforced(self):
        with pytest.raises(ConfigError, match="power of two"):
            parse_config(MINIMAL.replace("n = 1024", "n = 1000"))

    def test_duplicate_key_names_both_lines(self):
        text = MINIMAL + "\n[grid]\nn = 512\n"
        with pytest.raises(ConfigError, match="duplicate key 'grid.n'") as err:
            parse_config(text)
        assert "first set at line" in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'grid.m'"):
            parse_config(MINIMAL + "\n[grid]\nm = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section \[turbo\]"):
            parse_config(MINIMAL + "\n[turbo]\nspeed = 11\n")

    def test_all_errors_reported(self):
        text = MINIMAL + "\n[grid]\nn = 37\n[weights]\np = 0.3\nphi = 1,2\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        message = str(err.value)
        assert "duplicate key" in message
        assert "p must lie in" in message
        assert "4 comma-separated" in message

    def test_comments_and_blank_lines(self):
        text = "# header\n" + MINIMAL + "\n[output]\ndir = results  # trailing\n"
        cfg = parse_config(text)
        assert cfg.out_dir == "results"

    def test_inf_and_tuples(self):
        text = MINIMAL + "\n[weights]\np = inf\nphi = 0.5,1,0.5,1\n"
        cfg = parse_config(text)
        assert np.isinf(cfg.p)
        assert cfg.phi == (0.5, 1.0, 0.5, 1.0)

    def test_retired_keys_accepted_and_ignored(self):
        # form and seed select nothing; older files that set them still parse
        old = parse_config(MINIMAL + "\n[dynamics]\nform = momentum\n[output]\nseed = 7\n")
        assert old == parse_config(MINIMAL)
        assert config_hash(old) == config_hash(parse_config(MINIMAL))
        assert "form" not in old.to_text() and "seed" not in old.to_text()
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert not names & {"form", "seed"}

    def test_dealias_true_accepted_and_ignored(self):
        # products are always 2/3-truncated; files that say so still parse
        old = parse_config(MINIMAL + "\n[dynamics]\ndealias = true\n")
        assert old == parse_config(MINIMAL)
        assert config_hash(old) == config_hash(parse_config(MINIMAL))
        assert "dealias" not in old.to_text()
        assert "dealias" not in {f.name for f in dataclasses.fields(ExperimentConfig)}

    def test_dealias_false_rejected(self):
        with pytest.raises(ConfigError, match="dynamics.dealias: dealiasing is no longer optional"):
            parse_config(MINIMAL + "\n[dynamics]\ndealias = false\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[dynamics]\nform = sqrt3", "diagnostic-only"),
            ("[dynamics]\nform = form_c", "unknown form"),
            ("[output]\nseed = one", "output.seed"),
        ],
        ids=["form_sqrt3", "form_unknown", "seed_not_int"],
    )
    def test_retired_keys_still_validated(self, line, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(MINIMAL + "\n" + line + "\n")

    def test_bad_variant(self):
        with pytest.raises(ConfigError, match="unknown variant"):
            parse_config(MINIMAL + "\n[diagnostics]\nvariant = thm99\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            (MINIMAL.replace("L = 40", "L = nan"), "L must be finite"),
            (MINIMAL.replace("L = 40", "L = inf"), "L must be finite"),
            (MINIMAL.replace("T = 0.5", "T = inf"), "T must be finite"),
            (MINIMAL.replace("T = 0.5", "T = nan"), "T must be finite"),
            (MINIMAL.replace("amplitude = 0.05", "amplitude = nan"), "amplitude must be finite"),
            (MINIMAL + "\n[initial]\ncenter = -inf\n", "center must be finite"),
            (MINIMAL + "\n[initial]\nwidth = 0\n", "width must be positive"),
            (MINIMAL + "\n[diagnostics]\nd = nan\n", "d must be finite"),
            (MINIMAL + "\n[weights]\nN = nan\n", "N must be finite"),
            (MINIMAL + "\n[weights]\np = -inf\n", "p must be finite"),
            (MINIMAL + "\n[weights]\nphi = nan,0,2,0\n", "phi must be finite"),
            (MINIMAL + "\n[diagnostics]\nwindow = 4,20\n", "window must satisfy"),
            (MINIMAL + "\n[diagnostics]\nwindow = 10,35\n", "window must satisfy"),
        ],
        ids=[
            "L_nan", "L_inf", "T_inf", "T_nan", "amplitude_nan", "center_inf", "width_zero",
            "d_nan", "N_nan", "p_minus_inf", "phi_nan", "window_low", "window_high",
        ],
    )
    def test_nonfinite_and_out_of_range_rejected(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_line_numbers_in_messages(self):
        text = "[grid]\nn = banana\n"
        with pytest.raises(ConfigError, match="line 2: grid.n"):
            parse_config(text)


class TestRoundTrip:
    def test_lossless(self):
        text = (
            MINIMAL
            + "\n[time]\nsnapshot_stride = 4\ndt = 0.005\n"
            + "[dynamics]\nform = momentum\n"
            + "[weights]\nphi = 0,0,2,0\np = 2\nN = 100\n"
            + "[diagnostics]\nrun = persistence,analyticity\nwindow = 11,19\nd = 1.5\n"
            + "variant = thm43\nt_star = 0.25\npsi_literal = true\n"
            + "[output]\ndir = results\nseed = 99\n"
        )
        cfg = parse_config(text)
        again = parse_config(cfg.to_text())
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_hash_sensitive_to_values(self):
        a = parse_config(MINIMAL)
        b = parse_config(MINIMAL.replace("T = 0.5", "T = 0.25"))
        assert config_hash(a) != config_hash(b)
        assert len(config_hash(a)) == 12
