"""Redundancy model unit + property tests (config, placement, policies).

The redesigned placement surface's contract:

- ``RedundancyConfig`` parses/rejects specs and round-trips through its
  canonical ``spec`` string;
- ``ring_table`` / ``PlacementMap`` never co-locate two copies of one
  segment, under construction and under any sequence of valid moves;
- every read policy emits a weight matrix whose rows sum to 1 with each
  slot under the scheme's cap;
- the deprecated accessors still work but warn.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import StorageCluster
from repro.cluster.redundancy import (
    READ_POLICY_NAMES,
    PlacementMap,
    RedundancyConfig,
    assign_read_weights,
    ring_table,
)
from repro.util.errors import ConfigError, SimulationError


class TestRedundancyConfig:
    @pytest.mark.parametrize(
        "spec, width, fanout, scale",
        [
            ("r=1", 1, 1, 1.0),
            ("r=3", 3, 1, 1.0),
            ("ec=4+2", 6, 4, 0.25),
            ("ec=2+1", 3, 2, 0.5),
        ],
    )
    def test_parse_shapes(self, spec, width, fanout, scale):
        config = RedundancyConfig.parse(spec)
        assert config.width == width
        assert config.read_fanout == fanout
        assert config.write_weight_scale == pytest.approx(scale)
        assert config.spec == spec

    def test_parse_tolerates_whitespace_and_case(self):
        assert RedundancyConfig.parse(" R = 3 ").spec == "r=3"
        assert RedundancyConfig.parse("EC=4 + 2").spec == "ec=4+2"

    @pytest.mark.parametrize(
        "spec", ["", "r=0", "r=-1", "ec=4", "ec=0+2", "ec=4+0", "raid=5", "3"]
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ConfigError):
            RedundancyConfig.parse(spec)

    def test_only_single_copy_primary_is_trivial(self):
        assert RedundancyConfig.parse("r=1").is_trivial
        assert not RedundancyConfig.parse("r=2").is_trivial
        assert not RedundancyConfig.parse("ec=2+1").is_trivial

    def test_validate_against_needs_width_servers(self):
        RedundancyConfig.parse("ec=4+2").validate_against(6)
        with pytest.raises(ConfigError, match="6 distinct"):
            RedundancyConfig.parse("ec=4+2").validate_against(5)

    def test_constructor_cross_field_validation(self):
        with pytest.raises(ConfigError):
            RedundancyConfig(scheme="replication", r=2, k=4)
        with pytest.raises(ConfigError):
            RedundancyConfig(scheme="ec", k=4, m=2, r=3)
        with pytest.raises(ConfigError):
            RedundancyConfig(scheme="mirroring")

    @given(r=st.integers(1, 12))
    def test_replication_spec_round_trips(self, r):
        config = RedundancyConfig.parse(f"r={r}")
        assert RedundancyConfig.parse(config.spec) == config

    @given(k=st.integers(1, 12), m=st.integers(1, 6))
    def test_ec_spec_round_trips(self, k, m):
        config = RedundancyConfig.parse(f"ec={k}+{m}")
        assert RedundancyConfig.parse(config.spec) == config
        assert config.width == k + m


class TestRingTable:
    def test_width_one_is_the_primary_column(self):
        primaries = [3, 1, 4, 1, 5]
        table = ring_table(primaries, 1, 8)
        np.testing.assert_array_equal(table[:, 0], primaries)

    @given(
        num_bs=st.integers(2, 16),
        width=st.integers(1, 16),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_never_co_locate(self, num_bs, width, data):
        if width > num_bs:
            with pytest.raises(SimulationError):
                ring_table([0], width, num_bs)
            return
        primaries = data.draw(
            st.lists(st.integers(0, num_bs - 1), min_size=1, max_size=40)
        )
        table = ring_table(primaries, width, num_bs)
        assert table.shape == (len(primaries), width)
        for row in table:
            assert len(set(row.tolist())) == width

    def test_zero_width_rejected(self):
        with pytest.raises(SimulationError):
            ring_table([0, 1], 0, 4)


class TestPlacementMap:
    def _map(self, num_segments=10, width=3, num_bs=6):
        primaries = np.arange(num_segments, dtype=np.int64) % num_bs
        return PlacementMap(ring_table(primaries, width, num_bs), num_bs)

    def test_construction_rejects_co_located_rows(self):
        with pytest.raises(SimulationError, match="co-located"):
            PlacementMap(np.array([[0, 1], [2, 2]]), 4)

    def test_construction_rejects_out_of_range_cells(self):
        with pytest.raises(SimulationError, match="outside"):
            PlacementMap(np.array([[0, 5]]), 4)

    def test_one_dim_input_becomes_width_one(self):
        placement = PlacementMap(np.array([2, 0, 1]), 3)
        assert placement.width == 1
        assert placement.primary_of(0) == 2

    def test_set_slot_moves_exactly_one_copy(self):
        placement = self._map()
        before = placement.replicas_of(0)
        free = next(
            bs for bs in range(placement.num_block_servers)
            if bs not in before
        )
        src = placement.set_slot(0, 1, free)
        assert src == before[1]
        after = placement.replicas_of(0)
        assert after[0] == before[0] and after[2] == before[2]
        assert after[1] == free
        placement.check_invariants()

    def test_set_slot_rejects_co_location(self):
        placement = self._map()
        primary = placement.primary_of(0)
        with pytest.raises(SimulationError, match="co-locate"):
            placement.set_slot(0, 1, primary)

    def test_set_slot_rejects_noop_and_bad_ids(self):
        placement = self._map()
        with pytest.raises(SimulationError, match="already lives"):
            placement.set_slot(0, 0, placement.primary_of(0))
        with pytest.raises(SimulationError, match="slots"):
            placement.set_slot(0, 9, 0)
        with pytest.raises(SimulationError, match="unknown"):
            placement.set_slot(10**9, 0, 0)
        with pytest.raises(SimulationError, match="unknown"):
            placement.set_slot(0, 0, 10**9)

    def test_lookup_surfaces_agree(self):
        placement = self._map()
        assert placement.primary_array()[3] == placement.primary_of(3)
        assert placement.primary_mapping()[3] == placement.primary_of(3)
        assert placement.slot_of(3, placement.replicas_of(3)[2]) == 2
        assert placement.slot_of(3, 10**6 % placement.num_block_servers) in (
            -1, 0, 1, 2,
        )
        for bs in range(placement.num_block_servers):
            for seg, slot in placement.resident_on(bs):
                assert placement.replicas_of(seg)[slot] == bs

    @given(
        moves=st.lists(
            st.tuples(
                st.integers(0, 10_000),
                st.integers(0, 10_000),
                st.integers(0, 10_000),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_random_moves_never_co_locate_or_lose_copies(self, moves):
        placement = self._map(num_segments=12, width=3, num_bs=7)
        for seg_pick, slot_pick, bs_pick in moves:
            seg = seg_pick % placement.num_segments
            slot = slot_pick % placement.width
            dest = bs_pick % placement.num_block_servers
            if dest in placement.replicas_of(seg):
                continue
            placement.set_slot(seg, slot, dest)
        placement.check_invariants()
        total = sum(
            placement.resident_count(bs)
            for bs in range(placement.num_block_servers)
        )
        assert total == placement.num_segments * placement.width
        for seg in range(placement.num_segments):
            copies = placement.replicas_of(seg)
            assert len(set(copies)) == placement.width

    def test_copy_is_independent(self):
        placement = self._map()
        clone = placement.copy()
        free = next(
            bs for bs in range(placement.num_block_servers)
            if bs not in placement.replicas_of(0)
        )
        clone.set_slot(0, 0, free)
        assert placement.primary_of(0) != clone.primary_of(0)

    def test_table_view_is_read_only(self):
        placement = self._map()
        with pytest.raises(ValueError):
            placement.table[0, 0] = 99


def _policy_inputs(seed, num_segments=24, num_bs=8):
    rng = np.random.default_rng(seed)
    primaries = rng.integers(0, num_bs, size=num_segments)
    read_mass = rng.gamma(0.4, 2e9, size=num_segments)  # heavy-tailed, like §3
    write_mass = rng.gamma(0.4, 4e9, size=num_segments)
    return primaries, read_mass, write_mass


class TestReadPolicies:
    @pytest.mark.parametrize("policy", READ_POLICY_NAMES)
    @pytest.mark.parametrize("spec", ["r=2", "r=3", "ec=2+1", "ec=4+2"])
    def test_weight_contract(self, policy, spec):
        config = RedundancyConfig.parse(spec)
        num_bs = 8
        primaries, read_mass, write_mass = _policy_inputs(5)
        table = ring_table(primaries, config.width, num_bs)
        weights = assign_read_weights(
            policy, config, table, read_mass, write_mass, num_bs,
            rng=np.random.default_rng(7),
        )
        assert weights.shape == table.shape
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-9)
        assert float(weights.min()) >= -1e-12
        assert float(weights.max()) <= config.read_weight_cap + 1e-9

    @pytest.mark.parametrize("policy", READ_POLICY_NAMES)
    def test_deterministic_given_same_rng_stream(self, policy):
        config = RedundancyConfig.parse("r=3")
        primaries, read_mass, write_mass = _policy_inputs(11)
        table = ring_table(primaries, config.width, 8)
        runs = [
            assign_read_weights(
                policy, config, table, read_mass, write_mass, 8,
                rng=np.random.default_rng(123),
            )
            for __ in range(2)
        ]
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_primary_policy_matches_its_name(self):
        config = RedundancyConfig.parse("r=3")
        primaries, read_mass, write_mass = _policy_inputs(2)
        table = ring_table(primaries, 3, 8)
        weights = assign_read_weights(
            "primary", config, table, read_mass, write_mass, 8
        )
        np.testing.assert_array_equal(weights[:, 0], 1.0)
        np.testing.assert_array_equal(weights[:, 1:], 0.0)

    def test_load_aware_policies_beat_primary_on_cov(self):
        # The point of the exercise: steering reads off the primary copy
        # flattens the per-BS load distribution.
        config = RedundancyConfig.parse("r=3")
        num_bs = 8
        primaries, read_mass, write_mass = _policy_inputs(3, num_segments=64)
        table = ring_table(primaries, 3, num_bs)

        def cov(policy):
            weights = assign_read_weights(
                policy, config, table, read_mass, write_mass, num_bs,
                rng=np.random.default_rng(1),
            )
            load = np.zeros(num_bs)
            np.add.at(load, table.ravel(), (read_mass[:, None] * weights).ravel())
            np.add.at(load, table.ravel(), np.repeat(write_mass, 3))
            return float(np.std(load) / np.mean(load))

        baseline = cov("primary")
        assert cov("least_loaded") <= baseline
        assert cov("water_filling") <= baseline

    def test_unknown_policy_rejected(self):
        config = RedundancyConfig.parse("r=2")
        primaries, read_mass, write_mass = _policy_inputs(4)
        with pytest.raises(ConfigError, match="unknown read policy"):
            assign_read_weights(
                "round_robin", config, ring_table(primaries, 2, 8),
                read_mass, write_mass, 8,
            )


class TestStorageClusterRedundancy:
    def test_width_follows_the_scheme(self, small_fleet):
        storage = StorageCluster(
            small_fleet, redundancy=RedundancyConfig.parse("r=3")
        )
        assert storage.width == 3
        assert storage.scheme.spec == "r=3"
        for segment in small_fleet.segments:
            copies = storage.replicas_of(segment.segment_id)
            assert copies[0] == segment.block_server_id
            assert len(set(copies)) == 3
        storage.check_invariants()

    def test_migrate_respects_co_location(self, small_fleet):
        storage = StorageCluster(
            small_fleet, redundancy=RedundancyConfig.parse("r=2")
        )
        seg = small_fleet.segments[0].segment_id
        primary, replica = storage.replicas_of(seg)
        with pytest.raises(SimulationError):
            storage.migrate(seg, replica)  # would co-locate with slot 1
        free = next(
            bs for bs in range(storage.num_block_servers)
            if bs not in (primary, replica)
        )
        storage.migrate(seg, free, slot=1)
        assert storage.replicas_of(seg) == (primary, free)
        storage.check_invariants()

    def test_decommission_never_co_locates(self, small_fleet):
        storage = StorageCluster(
            small_fleet, redundancy=RedundancyConfig.parse("r=3")
        )
        events = storage.decommission(0, timestamp=1)
        assert events
        storage.check_invariants()
        assert storage.resident_on(0) == set()
        for seg in range(storage.num_segments):
            copies = storage.replicas_of(seg)
            assert 0 not in copies
            assert len(set(copies)) == 3

    @given(decom=st.lists(st.integers(0, 5), unique=True, max_size=3))
    @settings(max_examples=15, deadline=None)
    def test_decommission_sequences_conserve_copies(self, small_fleet, decom):
        storage = StorageCluster(
            small_fleet, redundancy=RedundancyConfig.parse("r=2")
        )
        for bs in decom:
            if len(storage.active_block_servers) <= 3:
                break
            storage.decommission(bs % storage.num_block_servers)
        storage.check_invariants()
        total = sum(
            storage.placement.resident_count(bs)
            for bs in range(storage.num_block_servers)
        )
        assert total == storage.num_segments * 2


class TestDeprecatedShims:
    """The placement API that replaced the removed single-mapping
    accessors must not warn."""

    def test_new_api_does_not_warn(self, small_fleet):
        storage = StorageCluster(small_fleet)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            storage.primary_of(0)
            storage.primaries_on(0)
            storage.placement.primary_mapping()
            storage.primary_array()
