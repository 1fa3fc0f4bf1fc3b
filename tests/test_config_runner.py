"""Tests for the experiment configuration presets and suite plumbing."""

import pytest

from repro.experiments.config import ExperimentConfig, full, quick
from repro.experiments.runner import SYSTEM_CLASSES, BenchmarkSuite


def test_quick_preset_defaults():
    config = quick()
    assert config.name == "quick"
    assert 0 < config.domain_scale <= 1.0
    assert set(config.synth_targets) == {"cordis", "sdss", "oncomx"}


def test_full_preset_matches_paper_synth_sizes():
    config = full()
    assert config.synth_targets == {"cordis": 1306, "sdss": 2061, "oncomx": 1065}
    assert config.domain_scale == 1.0
    assert config.table3_sample == 175  # 7 experts x 25 samples in the paper


def test_config_is_frozen():
    config = quick()
    with pytest.raises(AttributeError):  # dataclasses.FrozenInstanceError
        config.seed = 1


def test_config_domains_drive_suite_domain_names():
    import dataclasses

    config = dataclasses.replace(quick(), domains=("sdss",))
    suite = BenchmarkSuite(config)
    assert suite.domain_names() == ("sdss",)


def test_system_registry_names():
    from repro.experiments.tasks import SYSTEMS

    assert set(SYSTEM_CLASSES) == {"valuenet", "t5-large", "smbop"}
    assert tuple(SYSTEM_CLASSES) == SYSTEMS
    for name, cls in SYSTEM_CLASSES.items():
        assert cls.name == name


def test_dev_limit_caps_pairs():
    config = ExperimentConfig(
        name="cap-test",
        domain_scale=0.1,
        spider_train_per_db=4,
        spider_dev_per_db=2,
        synth_targets={"sdss": 10},
        dev_limit=5,
    )
    suite = BenchmarkSuite(config)
    assert len(suite.dev_pairs("sdss")) == 5
    assert len(suite.dev_pairs(None)) <= 5


def test_suite_rng_is_salted_and_stable():
    suite = BenchmarkSuite(quick())
    a = suite.rng("salt").random()
    b = suite.rng("salt").random()
    c = suite.rng("other").random()
    assert a == b
    assert a != c
