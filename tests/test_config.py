"""Configuration dataclass tests."""

import pytest

from repro.config import (
    ClusterConfig,
    FabricConfig,
    GPUConfig,
    InstanceConfig,
    ModelConfig,
    SchedulerConfig,
    SLOConfig,
)


class TestModelConfig:
    def test_defaults_are_deepseek_r1_distill_qwen_32b(self):
        cfg = ModelConfig()
        assert cfg.n_layers == 64
        assert cfg.n_kv_heads == 8
        assert cfg.head_dim == 128

    def test_frozen(self):
        with pytest.raises(Exception):
            ModelConfig().n_layers = 10


class TestGPUConfig:
    def test_h100_defaults(self):
        gpu = GPUConfig()
        assert gpu.hbm_bytes == 96e9
        assert gpu.pcie_bandwidth == 5.0e10

    def test_kv_capacity_scales_with_hbm(self):
        small = GPUConfig(hbm_bytes=80e9)
        big = GPUConfig(hbm_bytes=96e9)
        model = ModelConfig()
        assert small.kv_capacity_tokens(model) < big.kv_capacity_tokens(model)


class TestSLOConfig:
    def test_paper_targets(self):
        slo = SLOConfig()
        assert slo.tpot_target_s == 0.100
        assert slo.ttfat_target_s == 0.25
        assert slo.qoe_threshold == 0.95


class TestSchedulerConfig:
    def test_paper_knobs(self):
        cfg = SchedulerConfig()
        assert cfg.token_quantum == 500
        assert cfg.demotion_threshold_tokens == 5000


class TestInstanceConfig:
    def test_gpu_kv_tokens_derived_by_default(self):
        cfg = InstanceConfig()
        assert cfg.gpu_kv_tokens() == cfg.gpu.kv_capacity_tokens(cfg.model)

    def test_explicit_override(self):
        cfg = InstanceConfig(kv_capacity_tokens=1234)
        assert cfg.gpu_kv_tokens() == 1234

    def test_cpu_kv_tokens(self):
        cfg = InstanceConfig(cpu_kv_bytes=262_144 * 100)
        assert cfg.cpu_kv_tokens() == 100


class TestFabricConfig:
    def test_hundred_gbps_default(self):
        cfg = FabricConfig()
        assert cfg.link_bandwidth == pytest.approx(12.5e9)

    def test_transfer_seconds_affine(self):
        cfg = FabricConfig(link_bandwidth=1e9, base_latency_s=0.01)
        assert cfg.transfer_seconds(0) == pytest.approx(0.01)
        assert cfg.transfer_seconds(1e9) == pytest.approx(1.01)


class TestClusterConfig:
    def test_paper_deployment(self):
        cfg = ClusterConfig()
        assert cfg.n_instances == 8
