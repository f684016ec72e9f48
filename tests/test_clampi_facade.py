"""Tests for the redesigned CLaMPI facade.

Pins the single-point config resolution (info > mode > config.mode),
the configure()/stats() helpers, the schema-versioned snapshot and the
AccessType-keyed breakdown.
"""

import numpy as np
import pytest

from repro import clampi
from repro.mpi import SimMPI
from repro.util import KiB


class TestResolveConfig:
    def test_default(self):
        cfg = clampi.resolve_config()
        assert cfg == clampi.Config()
        assert cfg.mode is clampi.Mode.TRANSPARENT

    def test_config_mode_survives(self):
        cfg = clampi.resolve_config(
            clampi.Config(mode=clampi.Mode.ALWAYS_CACHE)
        )
        assert cfg.mode is clampi.Mode.ALWAYS_CACHE

    def test_mode_kwarg_beats_config(self):
        cfg = clampi.resolve_config(
            clampi.Config(mode=clampi.Mode.ALWAYS_CACHE),
            mode=clampi.Mode.USER_DEFINED,
        )
        assert cfg.mode is clampi.Mode.USER_DEFINED

    def test_info_beats_mode_kwarg(self):
        cfg = clampi.resolve_config(
            clampi.Config(mode=clampi.Mode.ALWAYS_CACHE),
            mode=clampi.Mode.USER_DEFINED,
            info={clampi.INFO_MODE_KEY: clampi.Mode.TRANSPARENT.value},
        )
        assert cfg.mode is clampi.Mode.TRANSPARENT

    def test_info_without_mode_key_is_ignored(self):
        cfg = clampi.resolve_config(
            mode=clampi.Mode.USER_DEFINED, info={"unrelated": "x"}
        )
        assert cfg.mode is clampi.Mode.USER_DEFINED

    def test_non_mode_fields_untouched(self):
        base = clampi.Config(index_entries=128, storage_bytes=4 * KiB)
        cfg = clampi.resolve_config(base, mode=clampi.Mode.ALWAYS_CACHE)
        assert cfg.index_entries == 128
        assert cfg.storage_bytes == 4 * KiB
        # resolve_config never mutates its input
        assert base.mode is clampi.Config().mode

    def test_bad_info_mode_raises(self):
        with pytest.raises(ValueError):
            clampi.resolve_config(info={clampi.INFO_MODE_KEY: "bogus"})


class TestConfigure:
    def test_returns_config(self):
        cfg = clampi.configure(index_entries=64, adaptive=True)
        assert isinstance(cfg, clampi.Config)
        assert cfg.index_entries == 64
        assert cfg.adaptive

    def test_rejects_unknown_field(self):
        with pytest.raises(TypeError):
            clampi.configure(no_such_option=1)


class TestFacadeExports:
    def test_all_exports_resolve(self):
        for name in clampi.__all__:
            assert hasattr(clampi, name), name

    def test_new_api_in_all(self):
        for name in ("configure", "resolve_config", "stats", "SCHEMA_VERSION"):
            assert name in clampi.__all__


class TestStatsSchema:
    def test_breakdown_keys_match_access_types(self):
        stats = clampi.CacheStats()
        assert list(stats.breakdown()) == [a.value for a in clampi.AccessType]

    def test_snapshot_carries_schema_version(self):
        snap = clampi.CacheStats().snapshot()
        assert snap["schema_version"] == clampi.SCHEMA_VERSION

    def test_stats_helper_and_info_mode_end_to_end(self):
        def program(m):
            win = clampi.window_allocate(
                m.comm_world,
                16 * KiB,
                info={clampi.INFO_MODE_KEY: clampi.Mode.ALWAYS_CACHE.value},
            )
            assert win.config.mode is clampi.Mode.ALWAYS_CACHE
            win.local_view(np.uint8)[:] = m.rank
            m.comm_world.barrier()
            peer = (m.rank + 1) % m.size
            buf = np.empty(128, np.uint8)
            with win.lock_epoch(peer):
                win.get_blocking(buf, peer, 0)
                win.get_blocking(buf, peer, 0)
            s = clampi.stats(win)
            assert s is win.stats
            return s.snapshot()

        results = SimMPI(nprocs=2).run(program)
        for snap in results:
            assert snap["schema_version"] == clampi.SCHEMA_VERSION
            assert snap["gets"] == 2
            assert snap["hit_full"] == 1


class TestPolicyResolution:
    """The unified policy-selection funnel (info > kwarg > config > env)."""

    def test_default_policy(self):
        assert clampi.resolve_config().policy == clampi.DEFAULT_POLICY

    def test_policy_kwarg(self):
        cfg = clampi.resolve_config(policy="lru")
        assert cfg.policy == "lru"

    def test_config_policy_survives(self):
        cfg = clampi.resolve_config(clampi.Config(policy="gdsf"))
        assert cfg.policy == "gdsf"

    def test_policy_kwarg_beats_config(self):
        cfg = clampi.resolve_config(clampi.Config(policy="gdsf"), policy="lru")
        assert cfg.policy == "lru"

    def test_info_beats_policy_kwarg(self):
        cfg = clampi.resolve_config(
            policy="lru", info={clampi.INFO_POLICY_KEY: "slru"}
        )
        assert cfg.policy == "slru"

    def test_env_var_is_last_resort(self, monkeypatch):
        monkeypatch.setenv(clampi.ENV_POLICY_VAR, "tinylfu")
        assert clampi.resolve_config().policy == "tinylfu"

    def test_explicit_channels_beat_env(self, monkeypatch):
        monkeypatch.setenv(clampi.ENV_POLICY_VAR, "tinylfu")
        assert clampi.resolve_config(policy="lru").policy == "lru"
        assert (
            clampi.resolve_config(clampi.Config(policy="gdsf")).policy == "gdsf"
        )
        assert (
            clampi.resolve_config(
                info={clampi.INFO_POLICY_KEY: "slru"}
            ).policy
            == "slru"
        )

    def test_bad_env_policy_raises(self, monkeypatch):
        monkeypatch.setenv(clampi.ENV_POLICY_VAR, "bogus")
        with pytest.raises(ValueError):
            clampi.resolve_config()

    def test_legacy_alias_through_info(self):
        cfg = clampi.resolve_config(info={clampi.INFO_POLICY_KEY: "full"})
        assert cfg.policy == "clampi-full"

    def test_bad_policy_raises(self):
        with pytest.raises(ValueError):
            clampi.resolve_config(policy="no-such")

    def test_registry_exports_on_facade(self):
        assert "lru" in clampi.available_policies()
        p = clampi.make_policy("lru")
        assert isinstance(p, clampi.CachePolicy)
        for name in (
            "register",
            "available_policies",
            "canonical_policy_name",
            "INFO_POLICY_KEY",
            "ENV_POLICY_VAR",
            "DEFAULT_POLICY",
        ):
            assert name in clampi.__all__

    def test_info_policy_end_to_end(self):
        def program(m):
            win = clampi.window_allocate(
                m.comm_world,
                4 * KiB,
                mode=clampi.Mode.ALWAYS_CACHE,
                info={clampi.INFO_POLICY_KEY: "lru"},
            )
            m.comm_world.barrier()
            if m.rank != 0:
                return None
            win.lock_all()
            win.get_blocking(np.empty(64, np.uint8), 1, 0)
            win.unlock_all()
            return win.policy_name, clampi.stats(win).snapshot()

        name, snap = SimMPI(nprocs=2).run(program)[0]
        assert name == "lru"
        assert snap["policy"] == "lru"

    def test_policy_kwarg_end_to_end(self):
        def program(m):
            win = clampi.window_allocate(
                m.comm_world,
                4 * KiB,
                mode=clampi.Mode.ALWAYS_CACHE,
                policy="slru",
            )
            return win.policy_name

        assert SimMPI(nprocs=2).run(program)[0] == "slru"

    def test_snapshot_policy_default(self):
        def program(m):
            win = clampi.window_allocate(m.comm_world, 1 * KiB)
            return win.stats.snapshot()

        snap = SimMPI(nprocs=1).run(program)[0]
        assert snap["policy"] == clampi.DEFAULT_POLICY
        assert snap["admission_rejects"] == 0

    def test_unattached_stats_policy_empty(self):
        assert clampi.CacheStats().snapshot()["policy"] == ""
