import json

import pytest

from fgwcl.config import (TrainConfig, config_hash, load_config,
                          parse_config, save_config)


class TestValidation:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.beta2 == 1.0
        assert cfg.num_negatives == 2
        assert cfg.epochs == 300
        assert cfg.hidden_dim == 1024 and cfg.out_dim == 512

    @pytest.mark.parametrize("field,value", [
        ("lr", 0.0), ("lr_fusion", -1e-3), ("alpha", 1.5), ("alpha", -0.1),
        ("beta", 0.0), ("k", 1), ("tau", 0.0), ("dropout", 1.0),
        ("fusion_dropout", -0.2), ("beta1", -1.0), ("num_negatives", 0),
        ("epochs", -1), ("hidden_dim", 0), ("bapg_iters", 0),
        ("bapg_tol", 0.0), ("node_loss", "bogus"),
        ("degree_feature", "degreeish"), ("num_anchors", -3),
    ])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field.split("_")[0]):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["lr", "lr_fusion", "beta", "tau",
                                       "bapg_tol", "beta1", "beta2"])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be .* finite"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"), 2.5])
    @pytest.mark.parametrize("field", ["k", "epochs", "bapg_iters",
                                       "num_anchors", "num_negatives",
                                       "hidden_dim", "out_dim"])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TrainConfig(**{field: value})

    def test_range_checked_enforces_tuning_intervals(self):
        good = dict(lr=1e-3, lr_fusion=5e-4, alpha=0.6, beta=0.05, k=12,
                    tau=0.5, dropout=0.2, fusion_dropout=0.1,
                    range_checked=True)
        TrainConfig(**good)
        for field, value in [("k", 35), ("k", 9), ("tau", 0.1),
                             ("beta", 5.0), ("lr", 0.5), ("dropout", 0.0)]:
            bad = dict(good)
            bad[field] = value
            with pytest.raises(ValueError, match="tuning range"):
                TrainConfig(**bad)

    def test_range_check_off_allows_out_of_range(self):
        TrainConfig(k=5, tau=0.05, dropout=0.0)


class TestParsing:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="lr_rate"):
            parse_config({"lr_rate": 1e-3})

    def test_integral_floats_coerced(self):
        cfg = parse_config({"k": 12.0, "epochs": 5.0})
        assert cfg.k == 12 and isinstance(cfg.k, int)

    def test_fractional_int_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            parse_config({"k": 10.5})

    def test_bool_fields_strict(self):
        with pytest.raises(ValueError, match="boolean"):
            parse_config({"normalize_features": 1})

    @pytest.mark.parametrize("value", ["0.1", None, True])
    def test_float_fields_need_numbers(self, value):
        with pytest.raises(ValueError, match="'lr' must be a number"):
            parse_config({"lr": value})

    def test_integer_for_float_field_accepted(self):
        assert parse_config({"beta": 1}).beta == 1

    def test_round_trip(self):
        cfg = TrainConfig(alpha=0.3, k=14, node_loss="v2")
        again = parse_config(cfg.to_dict())
        assert again == cfg


class TestFiles:
    def test_load_and_save(self, tmp_path):
        cfg = TrainConfig(alpha=0.7, epochs=10)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_config(path)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literals_rejected(self, tmp_path, literal):
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"lr": {literal}}}')
        with pytest.raises(ValueError, match="lr must be positive and finite"):
            load_config(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_config(path)

    def test_unknown_key_in_file_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"alpha": 0.5, "warmup": 3}))
        with pytest.raises(ValueError, match="warmup"):
            load_config(path)


class TestHash:
    def test_deterministic_and_sensitive(self):
        a = TrainConfig(alpha=0.5)
        b = TrainConfig(alpha=0.5)
        c = TrainConfig(alpha=0.6)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)
        assert len(config_hash(a)) == 16
