import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gch import ConfigError, ExperimentConfig, config_hash, parse_config
from gch.config import MAX_N, validate_config

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

    def test_n_capped_at_max_n(self):
        assert parse_config(MINIMAL.replace("n = 1024", f"n = {MAX_N}")).n == MAX_N
        with pytest.raises(ConfigError, match=f"MAX_N = {MAX_N}\\], got {2 * MAX_N}"):
            parse_config(MINIMAL.replace("n = 1024", f"n = {2 * MAX_N}"))

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
        # form, seed and d select nothing; older files that set them still parse
        old = parse_config(
            MINIMAL + "\n[dynamics]\nform = momentum\n[diagnostics]\nd = 7.5\n[output]\nseed = 7\n"
        )
        assert old == parse_config(MINIMAL)
        assert config_hash(old) == config_hash(parse_config(MINIMAL))
        text = old.to_text()
        assert "form" not in text and "seed" not in text and "\nd = " not in text
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert not names & {"form", "seed", "d"}

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
            ("[diagnostics]\nd = inf", "diagnostics.d: d must be finite, got inf"),
        ],
        ids=["form_sqrt3", "form_unknown", "seed_not_int", "d_inf"],
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
            (MINIMAL.replace("L = 40", "L = 0"), "L must be positive"),
            (MINIMAL.replace("T = 0.5", "T = -1"), "T must be positive"),
            (MINIMAL + "\n[time]\nsnapshot_stride = 0\n", "snapshot_stride must be >= 1"),
            (MINIMAL + "\n[time]\ndt = 0\n", "dt must be positive"),
            (MINIMAL.replace("kind = sech2", "kind = file"), "initial kind 'file' requires a path"),
            (MINIMAL + "\n[weights]\nN = 0\n", "N must be positive"),
            (MINIMAL + "\n[diagnostics]\nd = 0.5\n", "d must exceed 1/2"),
            (MINIMAL + "\n[diagnostics]\nt_star = 0.6\n", r"t_star must lie in \(0, T\]"),
            (MINIMAL + "\n[grid]\nn 1024\n", "expected 'key = value'"),
            (MINIMAL + "\n[diagnostics]\npsi_literal = maybe\n", "expected a boolean"),
        ],
        ids=[
            "L_nan", "L_inf", "T_inf", "T_nan", "amplitude_nan", "center_inf", "width_zero",
            "d_nan", "N_nan", "p_minus_inf", "phi_nan", "window_low", "window_high",
            "L_zero", "T_negative", "snapshot_stride_zero", "dt_zero", "file_without_path",
            "N_zero", "d_half", "t_star_after_T", "line_without_equals", "psi_literal_maybe",
        ],
    )
    def test_nonfinite_and_out_of_range_rejected(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_window_without_a_node_rejected(self):
        # n = 1024 on L = 40 puts a node every 0.078125
        with pytest.raises(ConfigError, match=r"window \(10.001, 10.002\) holds no grid node"):
            parse_config(MINIMAL + "\n[diagnostics]\nwindow = 10.001,10.002\n")
        parse_config(MINIMAL + "\n[diagnostics]\nwindow = 10,10.001\n")  # x = 10 is a node

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

    def test_numpy_floats_written_as_plain_numbers(self):
        base = parse_config(MINIMAL)
        cfg = dataclasses.replace(base, T=np.float64(0.25), phi=(np.float64(1.5),) * 4)
        validate_config(cfg)
        text = cfg.to_text()
        assert "T = 0.25\n" in text and "phi = 1.5,1.5,1.5,1.5\n" in text
        assert config_hash(parse_config(text)) == config_hash(cfg)

    def test_default_canonical_text_pinned(self):
        # the key order is part of the text config_hash covers
        assert ExperimentConfig().to_text() == (
            "[grid]\nn = 1024\nL = 40.0\n"
            "[time]\nT = 0.5\nsnapshot_stride = 1\ndt = none\n"
            "[initial]\nkind = sech2\namplitude = 0.05\nwidth = 1.0\ncenter = 0.0\npath = none\n"
            "[weights]\nphi = 0.0,0.0,2.0,0.0\np = inf\nN = none\n"
            "[diagnostics]\nrun = none\nwindow = none\nvariant = thm41\n"
            "t_star = none\npsi_literal = false\n"
            "[output]\ndir = out\n"
        )
        assert config_hash(ExperimentConfig()) == "44a675eee6c7"

    def test_hash_sensitive_to_values(self):
        a = parse_config(MINIMAL)
        b = parse_config(MINIMAL.replace("T = 0.5", "T = 0.25"))
        assert config_hash(a) != config_hash(b)
        assert len(config_hash(a)) == 12


def _floats(lo, hi, **bounds):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **bounds)


def _optional(values):
    return st.one_of(st.just("none"), values)


# what a hand-written value can hold: no '#', no surrounding blanks, no line breaks
_TOKEN = st.text("abcdefghijklmnopqrstuvwxyz0123456789_-./", min_size=1, max_size=16)
_PATHS = _TOKEN.filter(lambda s: s not in ("none", "auto"))
# (section, key) -> text of a valid value; window and t_star depend on L and T,
# so config_texts draws them last
_VALUES = {
    ("grid", "n"): st.integers(4, 20).map(lambda k: str(2**k)),
    ("grid", "L"): _floats(1e-3, 1e6).map(repr),
    ("time", "T"): _floats(1e-6, 1e3).map(repr),
    ("time", "snapshot_stride"): st.integers(1, 10**6).map(str),
    ("time", "dt"): _optional(_floats(0.0, 1.0, exclude_min=True).map(repr)),
    ("initial", "kind"): st.sampled_from(["zero", "sech", "sech2", "gaussian", "file"]),
    ("initial", "amplitude"): _floats(-1e3, 1e3).map(repr),
    ("initial", "width"): _floats(0.0, 1e3, exclude_min=True).map(repr),
    ("initial", "center"): _floats(-1e3, 1e3).map(repr),
    ("initial", "path"): _optional(_PATHS),
    ("dynamics", "form"): st.sampled_from(["primitive", "form_a", "form_b", "momentum"]),
    ("dynamics", "dealias"): st.sampled_from(["true", "yes", "on", "1"]),
    ("weights", "phi"): st.lists(_floats(-1e3, 1e3), min_size=4, max_size=4).map(
        lambda xs: ",".join(map(repr, xs))
    ),
    ("weights", "p"): st.one_of(st.sampled_from(["inf", "Infinity"]), _floats(1.0, 1e6).map(repr)),
    ("weights", "N"): _optional(_floats(0.0, 1e300, exclude_min=True).map(repr)),
    ("diagnostics", "run"): _optional(
        st.lists(st.sampled_from(["persistence", "asymptotics", "analyticity"]), min_size=1)
        .map(",".join)
    ),
    ("diagnostics", "d"): _floats(0.5, 1e3, exclude_min=True).map(repr),
    ("diagnostics", "variant"): st.sampled_from(["thm41", "thm43"]),
    ("diagnostics", "psi_literal"): st.sampled_from(["true", "False", "yes", "no", "on", "0"]),
    ("output", "dir"): _TOKEN,
    ("output", "seed"): st.integers(-(2**63), 2**63).map(str),
}


@st.composite
def config_texts(draw):
    """Valid configuration texts: a random subset of keys, in random order."""
    keys = draw(st.lists(st.sampled_from(sorted(_VALUES)), unique=True))
    values = {key: draw(_VALUES[key]) for key in keys}
    path = ("initial", "path")
    if values.get(("initial", "kind")) == "file" and values.get(path, "none") == "none":
        values[path] = draw(_PATHS)
    L = float(values.get(("grid", "L"), "40"))
    T = float(values.get(("time", "T"), "0.5"))
    dx = 2.0 * L / int(values.get(("grid", "n"), "1024"))
    if draw(st.booleans()):
        lo, hi = sorted(draw(st.lists(_floats(0.2 * L, 0.8 * L, exclude_min=True,
                                              exclude_max=True), min_size=2, max_size=2)))
        if hi - lo > 2.0 * dx:  # a window must hold a grid node on either side
            values[("diagnostics", "window")] = f"{lo!r},{hi!r}"
    if draw(st.booleans()):
        values[("diagnostics", "t_star")] = repr(draw(_floats(0.0, T, exclude_min=True)))
    return "".join(f"[{sec}]\n{key} = {text}\n" for (sec, key), text in values.items())


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None, database=None)
    @given(config_texts())
    def test_canonical_text_reproduces_config_and_hash(self, text):
        cfg = parse_config(text)
        canonical = cfg.to_text()
        again = parse_config(canonical)
        assert again == cfg
        assert again.to_text() == canonical
        assert config_hash(again) == config_hash(cfg)

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        config_texts(),
        st.text(st.one_of(st.characters(), st.sampled_from("# \t\r\n\x0b\x1c\x85 "))),
        st.one_of(st.text(), st.sampled_from(["none", "NONE", "auto", "", "ok/path"])),
    )
    def test_any_string_round_trips_or_raises(self, text, out_dir, path):
        # configs built in code may hold any string; to_text must not lose one silently
        cfg = dataclasses.replace(parse_config(text), out_dir=out_dir, path=path)
        try:
            canonical = cfg.to_text()
        except ValueError:
            return
        again = parse_config(canonical)
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    @pytest.mark.parametrize(
        "field,value",
        [("out_dir", "runs/#1"), ("out_dir", "a\nb"), ("out_dir", " out"),
         ("out_dir", "out\t"), ("path", "none"), ("path", "")],
    )
    def test_unreadable_string_raises(self, field, value):
        cfg = dataclasses.replace(parse_config(MINIMAL), **{field: value})
        with pytest.raises(ValueError, match="cannot be read back"):
            cfg.to_text()

    def test_plain_strings_still_written(self):
        cfg = dataclasses.replace(parse_config(MINIMAL), out_dir="runs/1 a=b", path="NONE.txt")
        assert parse_config(cfg.to_text()) == cfg
