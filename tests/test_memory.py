"""KV pool unit and property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.blocks import KVPool, OutOfMemoryError
from repro.workload.request import Request


def req(rid):
    return Request(rid=rid, prompt_len=8, reasoning_len=4, answer_len=4)


class TestBlocksFor:
    def test_rounds_up(self):
        pool = KVPool(1600, 1600, block_size=16)
        assert pool.blocks_for(0) == 0
        assert pool.blocks_for(1) == 1
        assert pool.blocks_for(16) == 1
        assert pool.blocks_for(17) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            KVPool(160, 160).blocks_for(-1)

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            KVPool(-1, 0)
        with pytest.raises(ValueError):
            KVPool(16, 16, block_size=0)


class TestAllocation:
    def test_allocate_and_release(self):
        pool = KVPool(320, 320)
        r = req(1)
        pool.allocate(r, 100)
        assert pool.gpu_used_blocks == 7
        assert r.kv_tokens == 100 and r.on_gpu
        assert pool.release(r) == 100
        assert pool.gpu_used_blocks == 0
        assert r.kv_tokens == 0

    def test_double_allocate_rejected(self):
        pool = KVPool(320, 320)
        r = req(1)
        pool.allocate(r, 10)
        with pytest.raises(OutOfMemoryError):
            pool.allocate(r, 10)

    def test_allocate_beyond_capacity_rejected(self):
        pool = KVPool(160, 160)
        with pytest.raises(OutOfMemoryError):
            pool.allocate(req(1), 161)

    def test_cpu_allocation(self):
        pool = KVPool(160, 320)
        r = req(1)
        pool.allocate(r, 200, on_gpu=False)
        assert pool.cpu_used_blocks == 13
        assert not r.on_gpu

    def test_release_unknown_rejected(self):
        pool = KVPool(160, 160)
        with pytest.raises(OutOfMemoryError):
            pool.release(req(9))


class TestGrowth:
    def test_grow_within_block_is_free(self):
        pool = KVPool(320, 320)
        r = req(1)
        pool.allocate(r, 10)
        used = pool.gpu_used_blocks
        pool.grow(r, 1)
        assert pool.gpu_used_blocks == used
        assert r.kv_tokens == 11

    def test_grow_across_block_boundary(self):
        pool = KVPool(320, 320)
        r = req(1)
        pool.allocate(r, 16)
        pool.grow(r, 1)
        assert pool.gpu_used_blocks == 2

    def test_grow_when_full_raises(self):
        pool = KVPool(32, 320)
        r = req(1)
        pool.allocate(r, 32)
        with pytest.raises(OutOfMemoryError):
            pool.grow(r, 1)

    def test_grow_swapped_out_raises(self):
        pool = KVPool(320, 320)
        r = req(1)
        pool.allocate(r, 10)
        pool.swap_out(r)
        with pytest.raises(OutOfMemoryError):
            pool.grow(r, 1)


class TestSwap:
    def test_swap_roundtrip(self):
        pool = KVPool(320, 320)
        r = req(1)
        pool.allocate(r, 50)
        moved = pool.swap_out(r)
        assert moved == 50
        assert pool.gpu_used_blocks == 0
        assert pool.cpu_used_blocks == 4
        assert not r.on_gpu
        pool.swap_in(r)
        assert r.on_gpu
        assert pool.cpu_used_blocks == 0

    def test_double_swap_out_rejected(self):
        pool = KVPool(320, 320)
        r = req(1)
        pool.allocate(r, 10)
        pool.swap_out(r)
        with pytest.raises(OutOfMemoryError):
            pool.swap_out(r)

    def test_swap_in_needs_gpu_room(self):
        pool = KVPool(32, 320)
        a, b = req(1), req(2)
        pool.allocate(a, 20)
        pool.swap_out(a)
        pool.allocate(b, 32)
        with pytest.raises(OutOfMemoryError):
            pool.swap_in(a)

    def test_swap_out_needs_cpu_room(self):
        pool = KVPool(320, 16)
        r = req(1)
        pool.allocate(r, 100)
        with pytest.raises(OutOfMemoryError):
            pool.swap_out(r)


class TestQueries:
    def test_total_and_free_tokens(self):
        pool = KVPool(320, 320)
        a, b = req(1), req(2)
        pool.allocate(a, 100)
        pool.allocate(b, 50)
        pool.swap_out(b)
        assert pool.total_kv_tokens() == 150
        assert pool.gpu_used_tokens() == 100
        assert pool.cpu_used_tokens() == 50
        assert pool.gpu_free_tokens() == 320 - 7 * 16

    def test_peak_tracks_high_water_mark(self):
        pool = KVPool(320, 320)
        a = req(1)
        pool.allocate(a, 160)
        pool.release(a)
        b = req(2)
        pool.allocate(b, 32)
        assert pool.peak_gpu_tokens() == 160

    def test_holds_and_on_gpu(self):
        pool = KVPool(320, 320)
        r = req(1)
        assert not pool.holds(r)
        pool.allocate(r, 10)
        assert pool.holds(r) and pool.on_gpu(r)
        pool.swap_out(r)
        assert pool.holds(r) and not pool.on_gpu(r)


class TestGrowAll:
    """Batch one-token growth — the decode-epoch fast path's pool call."""

    def test_matches_per_request_grow(self):
        batch, single = KVPool(640, 640), KVPool(640, 640)
        reqs_a = [req(i) for i in range(3)]
        reqs_b = [req(i) for i in range(3)]
        for pool, reqs in ((batch, reqs_a), (single, reqs_b)):
            for i, r in enumerate(reqs):
                pool.allocate(r, 15 + i)  # one request sits on a boundary
        crossing = sum(1 for r in reqs_a if r.kv_tokens % 16 == 0)
        batch.grow_all(reqs_a, crossing)
        for r in reqs_b:
            single.grow(r, 1)
        assert batch.gpu_used_blocks == single.gpu_used_blocks
        assert batch.gpu_used_tokens() == single.gpu_used_tokens()
        assert [r.kv_tokens for r in reqs_a] == [r.kv_tokens for r in reqs_b]
        batch.check_invariants()

    def test_oom_when_crossings_exceed_free_blocks(self):
        pool = KVPool(32, 0)
        a, b = req(1), req(2)
        pool.allocate(a, 16)
        pool.allocate(b, 16)
        with pytest.raises(OutOfMemoryError):
            pool.grow_all([a, b], crossing_blocks=2)
        # The failed call must not have mutated anything.
        pool.check_invariants()
        assert a.kv_tokens == 16 and b.kv_tokens == 16

    def test_counters_stay_o1_consistent(self):
        pool = KVPool(3200, 3200)
        reqs = [req(i) for i in range(4)]
        for r in reqs:
            pool.allocate(r, 10)
        for step in range(40):
            crossing = sum(1 for r in reqs if r.kv_tokens % 16 == 0)
            pool.grow_all(reqs, crossing)
            pool.check_invariants()
        assert pool.gpu_used_tokens() == 4 * 50


@st.composite
def pool_operations(draw):
    """A random sequence of (op, rid) pairs."""
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["allocate", "grow", "swap_out", "swap_in", "release"]
                ),
                st.integers(min_value=0, max_value=5),
            ),
            max_size=60,
        )
    )
    return ops


class TestPoolProperties:
    @given(pool_operations())
    @settings(max_examples=200, deadline=None)
    def test_invariants_hold_under_any_op_sequence(self, ops):
        pool = KVPool(640, 640)
        requests = {rid: req(rid) for rid in range(6)}
        for op, rid in ops:
            r = requests[rid]
            try:
                if op == "allocate":
                    pool.allocate(r, (rid + 1) * 10)
                elif op == "grow":
                    pool.grow(r, 3)
                elif op == "swap_out":
                    pool.swap_out(r)
                elif op == "swap_in":
                    pool.swap_in(r)
                elif op == "release":
                    pool.release(r)
            except OutOfMemoryError:
                pass
            pool.check_invariants()
        assert pool.gpu_used_blocks >= 0
        assert pool.cpu_used_blocks >= 0

    @given(
        st.lists(
            st.integers(min_value=1, max_value=200), min_size=1, max_size=20
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_allocate_release_conserves(self, sizes):
        pool = KVPool(100_000, 100_000)
        live = []
        for i, size in enumerate(sizes):
            r = req(i)
            pool.allocate(r, size)
            live.append(r)
        for r in live:
            pool.release(r)
        assert pool.gpu_used_blocks == 0
        assert pool.total_kv_tokens() == 0
