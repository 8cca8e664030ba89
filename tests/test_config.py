"""Config schema: parsing, coercion, rejection, and round-trips."""

import pytest

from intervalcl.config import (
    SCHEMA,
    ConfigError,
    apply_overrides,
    config_to_text,
    default_config,
    documented_defaults,
    load_config,
    parse_config_text,
)

# An old config naming attack.kind is told what replaced it.
REPLACED_KIND = r"unknown key attack.kind \(replaced by attack.enabled"


class TestDefaults:
    def test_every_schema_key_present(self):
        cfg = default_config()
        for section, keys in SCHEMA.items():
            for key in keys:
                assert key in cfg[section]

    def test_empty_text_is_valid(self):
        assert parse_config_text("") == default_config()

    def test_defaults_satisfy_choices(self):
        for section, keys in SCHEMA.items():
            for key, field in keys.items():
                if field.choices:
                    assert field.default in field.choices


class TestParsing:
    def test_types_coerced(self):
        cfg = parse_config_text("""
[train]
steps = 250
lr = 0.05
use_interval_mixup = false
optimizer = sgd
[net]
hidden = 32, 16
[data]
angles = 0, 45.5, 90
""")
        assert cfg["train"]["steps"] == 250
        assert cfg["train"]["lr"] == 0.05
        assert cfg["train"]["use_interval_mixup"] is False
        assert cfg["train"]["optimizer"] == "sgd"
        assert cfg["net"]["hidden"] == (32, 16)
        assert cfg["data"]["angles"] == (0.0, 45.5, 90.0)

    @pytest.mark.parametrize("raw,expected", [
        ("true", True), ("True", True), ("1", True), ("yes", True),
        ("on", True), ("false", False), ("0", False), ("no", False),
        ("off", False),
    ])
    def test_bool_spellings(self, raw, expected):
        cfg = parse_config_text(f"[train]\nmodel_selection = {raw}\n")
        assert cfg["train"]["model_selection"] is expected

    def test_space_separated_list(self):
        cfg = parse_config_text("[hypernet]\nhidden = 8 8 8\n")
        assert cfg["hypernet"]["hidden"] == (8, 8, 8)

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match=r"unknown section \[extra\]"):
            parse_config_text("[extra]\nx = 1\n")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="unknown key train.warmup"):
            parse_config_text("[train]\nwarmup = 5\n")
        with pytest.raises(ConfigError, match=REPLACED_KIND):
            parse_config_text("[attack]\nkind = pgd\n")

    def test_bad_int_named(self):
        with pytest.raises(ConfigError, match="train.steps"):
            parse_config_text("[train]\nsteps = soon\n")

    def test_bad_bool_named(self):
        with pytest.raises(ConfigError, match="train.use_interval_mixup"):
            parse_config_text("[train]\nuse_interval_mixup = maybe\n")

    def test_choice_enforced(self):
        with pytest.raises(ConfigError, match="linear/quadratic/log/cos"):
            parse_config_text("[train]\ndecay = cubic\n")
        with pytest.raises(ConfigError, match="net.activation"):
            parse_config_text("[net]\nactivation = tanh\n")

    def test_attack_switch(self):
        assert default_config()["attack"]["enabled"] is True
        cfg = parse_config_text("[attack]\nenabled = false\n")
        assert cfg["attack"]["enabled"] is False

    def test_malformed_ini(self):
        with pytest.raises(ConfigError):
            parse_config_text("steps = 3\n")  # key before any section

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(tmp_path / "absent.ini"))

    def test_load_file(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[data]\nkind = permuted\ntasks = 4\n")
        cfg = load_config(str(path))
        assert cfg["data"]["kind"] == "permuted"
        assert cfg["data"]["tasks"] == 4


class TestOverrides:
    def test_applies_with_coercion(self):
        cfg = default_config()
        apply_overrides(cfg, ["train.lr=0.5", "data.kind=rotated",
                              "net.hidden=4,4"])
        assert cfg["train"]["lr"] == 0.5
        assert cfg["data"]["kind"] == "rotated"
        assert cfg["net"]["hidden"] == (4, 4)

    @pytest.mark.parametrize("bad", ["train.lr", "lr=0.5", "=0.5", "train.=1"])
    def test_malformed_override(self, bad):
        with pytest.raises(ConfigError):
            apply_overrides(default_config(), [bad])

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError, match="unknown key train.warmup"):
            apply_overrides(default_config(), ["train.warmup=1"])
        with pytest.raises(ConfigError, match=r"unknown section \[extra\]"):
            apply_overrides(default_config(), ["extra.x=1"])
        with pytest.raises(ConfigError, match=REPLACED_KIND):
            apply_overrides(default_config(), ["attack.kind=none"])

    def test_override_value_validated(self):
        with pytest.raises(ConfigError, match="train.decay"):
            apply_overrides(default_config(), ["train.decay=cubic"])


class TestRoundTrip:
    def test_text_render_parses_back_identically(self):
        cfg = default_config()
        apply_overrides(cfg, ["train.lr=0.125", "data.angles=0,90",
                              "train.use_interval_mixup=false"])
        assert parse_config_text(config_to_text(cfg)) == cfg

    def test_documented_defaults_parse_to_defaults(self):
        assert parse_config_text(documented_defaults()) == default_config()

    def test_documented_defaults_cover_every_key(self):
        text = documented_defaults()
        for section, keys in SCHEMA.items():
            assert f"[{section}]" in text
            for key in keys:
                assert f"{key} = " in text
