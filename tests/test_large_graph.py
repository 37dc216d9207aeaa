"""Out-of-GPU-memory sampling (Section 8.4)."""

import numpy as np
import pytest

from repro.api.apps import DeepWalk, KHop
from repro.core.engine import NextDoorEngine
from repro.core.large_graph import LargeGraphNextDoor


def make_engine(**kwargs):
    defaults = {"modeled_graph_bytes": 32 * 1024 ** 3,
                "num_partitions": 8}
    defaults.update(kwargs)
    return LargeGraphNextDoor(**defaults)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            LargeGraphNextDoor(modeled_graph_bytes=0)
        with pytest.raises(ValueError):
            LargeGraphNextDoor(modeled_graph_bytes=1, sample_scale=0.0)
        with pytest.raises(ValueError):
            LargeGraphNextDoor(modeled_graph_bytes=1, sample_scale=2.0)

    def test_fits_in_memory(self):
        assert LargeGraphNextDoor(
            modeled_graph_bytes=1024).fits_in_memory()
        assert not make_engine().fits_in_memory()


class TestExecution:
    def test_transfers_charged(self, medium_graph):
        engine = make_engine()
        r = engine.run(DeepWalk(5), medium_graph, num_samples=32, seed=0)
        assert r.transfer_seconds > 0
        assert "transfer" in r.breakdown

    def test_functionally_identical_to_plain_engine(self, medium_graph):
        """The large-graph mode only adds transfers: same seed, same
        samples."""
        plain = NextDoorEngine().run(DeepWalk(8), medium_graph,
                                     num_samples=32, seed=7)
        large = make_engine().run(DeepWalk(8), medium_graph,
                                  num_samples=32, seed=7)
        assert np.array_equal(plain.get_final_samples(),
                              large.get_final_samples())

    def test_sample_scale_shrinks_transfers(self, medium_graph):
        full = make_engine().run(DeepWalk(5), medium_graph,
                                 num_samples=32, seed=0)
        scaled = make_engine(sample_scale=0.01).run(
            DeepWalk(5), medium_graph, num_samples=32, seed=0)
        assert scaled.transfer_seconds < 0.1 * full.transfer_seconds

    def test_transfer_grows_with_touched_partitions(self, medium_graph):
        # One root touches few partitions; many roots touch most.
        one = make_engine().run(DeepWalk(1), medium_graph,
                                num_samples=1, seed=0)
        many = make_engine().run(DeepWalk(1), medium_graph,
                                 num_samples=500, seed=0)
        assert many.transfer_seconds > one.transfer_seconds

    def test_partition_honours_requested_granularity(self, medium_graph):
        engine = make_engine(num_partitions=12)
        result = engine.run(DeepWalk(2), medium_graph, num_samples=8,
                            seed=0)
        # The partition belongs to the charge model: pricing builds it.
        assert result.seconds > 0
        assert engine._partition.num_parts >= 12

    def test_khop_less_transfer_bound_than_walk(self, medium_graph):
        """k-hop amortises each step's transfer over an exploding
        sampling volume; a long walk re-ships every step."""
        walk = make_engine().run(DeepWalk(50), medium_graph,
                                 num_samples=64, seed=0)
        khop = make_engine().run(KHop((25, 10)), medium_graph,
                                 num_samples=64, seed=0)
        walk_share = walk.transfer_seconds / walk.seconds
        khop_share = khop.transfer_seconds / khop.seconds
        assert walk_share > khop_share
