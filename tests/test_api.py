"""Snapshot tests for the consolidated public API surface.

The point of ``repro.api`` is that the public surface stops drifting:
``repro.__all__``, the facade signatures, and the ``ReproConfig``
round-trip are contracts.  A failure here means a PR changed the public
API — update the snapshot *deliberately* or revert the change.
"""

from __future__ import annotations

import inspect
import json
import math
import re
from pathlib import Path

import pytest

import repro
from repro.config import ReproConfig, RetrievalConfig, ShardingConfig
from repro.errors import ConfigurationError

#: The public surface.  Additions belong at the right spot in this list
#: (and in ``repro/__init__.py``); removals are breaking changes.
PUBLIC_API = [
    "EngineConfig",
    "ReplicationConfig",
    "ReproConfig",
    "RetrievalConfig",
    "ShardingConfig",
    "build_default_corpus",
    "IndexArtifact",
    "QueryEngine",
    "ReproService",
    "CorpusDelta",
    "IngestReport",
    "get_or_build_index",
    "ingest_corpus",
    "open_engine",
    "open_pipeline",
    "open_service",
    "open_support_system",
    "open_workflow",
    "AugmentedWorkflow",
    "RAGPipeline",
    "BlindGrader",
    "compare_modes",
    "krylov_benchmark",
    "run_experiment",
    "__version__",
]


class TestPublicSurface:
    def test_all_snapshot(self):
        assert repro.__all__ == PUBLIC_API

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_package_version_has_one_source(self):
        """``pyproject.toml`` carries no version literal of its own: it reads
        ``repro.__version__`` (a regex, not ``tomllib`` — CI still runs 3.10)."""
        text = (Path(__file__).parent.parent / "pyproject.toml").read_text()
        assert not re.search(r'(?m)^version\s*=\s*"', text)
        assert re.search(r'(?m)^dynamic\s*=\s*\[\s*"version"\s*\]', text)
        assert re.search(
            r'(?m)^version\s*=\s*\{\s*attr\s*=\s*"repro\.__version__"\s*\}', text
        )
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)

    def test_open_engine_signature(self):
        params = inspect.signature(repro.open_engine).parameters
        assert list(params) == ["config", "bundle", "fault_injector", "registry"]
        assert params["config"].default is None
        assert params["config"].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        for name in ("bundle", "fault_injector", "registry"):
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY
            assert params[name].default is None

    def test_open_pipeline_and_workflow_signatures(self):
        pipeline = inspect.signature(repro.open_pipeline).parameters
        assert list(pipeline) == ["config", "bundle", "mode", "fault_injector"]
        workflow = inspect.signature(repro.open_workflow).parameters
        assert list(workflow) == ["config", "bundle", "mode", "store"]

    def test_repro_config_fields(self):
        import dataclasses

        names = [f.name for f in dataclasses.fields(ReproConfig)]
        # New sections append; existing sections are load-bearing.
        for required in (
            "chat_model",
            "retrieval",
            "engine",
            "admission",
            "durability",
            "sharding",
            "replication",
        ):
            assert required in names, required


class TestReproConfigRoundTrip:
    def test_to_dict_from_dict_round_trip(self):
        cfg = ReproConfig(
            chat_model="gpt-4o-sim",
            iterations_per_token=0,
            sharding=ShardingConfig(num_shards=4, build_workers=2),
        )
        clone = ReproConfig.from_dict(cfg.to_dict())
        assert clone == cfg
        assert clone.to_dict() == cfg.to_dict()

    def test_from_dict_partial_keeps_defaults(self):
        cfg = ReproConfig.from_dict({"sharding": {"num_shards": 2}})
        assert cfg.sharding.num_shards == 2
        assert cfg.sharding.build_workers == ShardingConfig().build_workers
        assert cfg.chat_model == ReproConfig().chat_model

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown config key"):
            ReproConfig.from_dict({"shardingg": {}})
        with pytest.raises(ConfigurationError, match="sharding"):
            ReproConfig.from_dict({"sharding": {"num_shard": 1}})
        # A removed knob is an unknown key like any other.
        with pytest.raises(ConfigurationError, match="unknown config key.*burn_lanes"):
            ReproConfig.from_dict({"engine": {"burn_lanes": 1}})
        for removed in (
            {"ingest": {"max_delta_fraction": 0.5}},
            {"sharding": {"scatter_workers": 2}},
            {"durability": {"verify_index_checksums": False}},
            {"replication": {"hedging": True}},
        ):
            with pytest.raises(ConfigurationError, match="unknown config key"):
                ReproConfig.from_dict(removed)
        # Knobs nothing turned: each default is now a constant beside its reader.
        for section, key, value in (
            ("engine", "embedding_cache_size", 4096),
            ("admission", "min_concurrency", 1),
            ("admission", "max_concurrency", 16),
            ("admission", "aimd_increase", 1.0),
            ("admission", "aimd_decrease", 0.5),
            ("admission", "aimd_window", 8),
            ("replication", "suspect_after", 1),
            ("replication", "down_after", 3),
            ("replication", "probe_after", 4),
            ("admission", "per_client_rates", {"vip": 100.0}),
        ):
            with pytest.raises(ConfigurationError, match=f"unknown config key.*'{key}'"):
                ReproConfig.from_dict({section: {key: value}})
        # The retry and breaker parameters are RetryPolicy / CircuitBreaker
        # defaults; only ``deadline_seconds`` moved to the root.
        for key, value in (
            ("max_attempts", 4),
            ("backoff_base_seconds", 0.05),
            ("backoff_max_seconds", 2.0),
            ("jitter", 0.25),
            ("breaker_failure_threshold", 8),
            ("breaker_recovery_seconds", 30.0),
            ("record_history", False),
        ):
            with pytest.raises(ConfigurationError, match=f"unknown config key.*'{key}'"):
                ReproConfig.from_dict({key: value})
        for section in ("observability", "resilience"):
            with pytest.raises(ConfigurationError, match=f"unknown config key.*'{section}'"):
                ReproConfig.from_dict({section: {"deadline_seconds": 5.0}})

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"retrieval": {"first_pass_k": "8"}}, "retrieval.first_pass_k"),
            ({"iterations_per_token": "x"}, "iterations_per_token"),
            ({"engine": {"answer_cache_size": None}}, "engine.answer_cache_size"),
            ({"deadline_seconds": "soon"}, "deadline_seconds"),
            ({"admission": {"queue_timeout_seconds": "4s"}}, "admission.queue_timeout_seconds"),
            ({"replication": {"replicas": 2.5}}, "replication.replicas"),
            ({"sharding": {"num_shards": True}}, "sharding.num_shards"),
        ],
    )
    def test_from_dict_rejects_mistyped_values(self, data, key):
        # Each once raised TypeError / AttributeError, or passed and
        # misbehaved later (2.5 replicas on the first ask, True as 1 shard).
        with pytest.raises(ConfigurationError, match=re.escape(key)):
            ReproConfig.from_dict(data)

    @pytest.mark.parametrize(
        "data, leaf",
        [
            ({"admission": {"requests_per_second": math.nan}}, "requests_per_second"),
            ({"admission": {"queue_timeout_seconds": math.nan}}, "queue_timeout_seconds"),
            ({"deadline_seconds": math.nan}, "deadline_seconds"),
            (json.loads('{"admission": {"requests_per_second": NaN}}'), "requests_per_second"),
        ],
    )
    def test_from_dict_rejects_nan(self, data, leaf):
        # NaN fails every comparison, so ``x <= 0`` let it through: a NaN
        # rate switched admission off and a NaN deadline never expired.
        with pytest.raises(ConfigurationError, match=f"{leaf} must be .*got nan"):
            ReproConfig.from_dict(data)

    def test_from_dict_accepts_an_int_for_a_float(self):
        cfg = ReproConfig.from_dict(
            {"admission": {"queue_timeout_seconds": 0}, "deadline_seconds": 5,
             "iterations_per_token": None}
        )
        assert (cfg.admission.queue_timeout_seconds, cfg.deadline_seconds) == (0, 5)

    @pytest.mark.parametrize(
        "config, key",
        [
            (ReproConfig(chat_model="nope"), "chat_model"),
            (ReproConfig(iterations_per_token=-1), "iterations_per_token"),
            (
                ReproConfig(retrieval=RetrievalConfig(embedding_model="nope")),
                "retrieval.embedding_model",
            ),
        ],
    )
    def test_unknown_models_and_negative_burn_fail_at_the_front_door(self, config, key):
        # Pipelines are lazy: without this the first *ask* died with ModelError.
        with pytest.raises(ConfigurationError, match=key):
            ReproConfig.from_dict(config.to_dict())
        with pytest.raises(ConfigurationError, match=key):
            repro.open_service(config)

    def test_independently_settable_field_count(self):
        import dataclasses

        def count(section) -> int:
            return sum(
                count(getattr(section, f.name))
                if dataclasses.is_dataclass(getattr(section, f.name))
                else 1
                for f in dataclasses.fields(section)
            )

        assert count(ReproConfig()) == 27
        # Sections: the root and its six nested ones.
        assert 1 + sum(map(dataclasses.is_dataclass, vars(ReproConfig()).values())) == 7


class TestWrapperDelegation:
    """The higher assemblies get their engine from ``open_engine``."""

    def test_build_support_system_uses_open_engine(
        self, monkeypatch, bundle, fast_config
    ):
        import repro.api as api
        from repro.api import open_support_system

        calls = {}
        real = api.open_engine

        def recording(config=None, **kwargs):
            calls["config"] = config
            return real(config, **kwargs)

        monkeypatch.setattr(api, "open_engine", recording)
        system = open_support_system(fast_config, bundle=bundle)
        assert calls["config"] is fast_config
        assert system.chatbot.service.pipeline_for(system.chatbot.mode) is not None

    def test_open_engine_sharded_support_system(self, bundle):
        # The facade threads sharding through to the bots' engine.
        from repro.api import open_support_system

        cfg = ReproConfig(
            iterations_per_token=0, sharding=ShardingConfig(num_shards=2)
        )
        system = open_support_system(cfg, bundle=bundle)
        assert system.chatbot.service.engine.num_shards == 2
