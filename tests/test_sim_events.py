"""Event queue and simulation engine unit tests."""

import pytest

from repro.sim.engine import SimulationEngine
from repro.sim.events import Event, EventKind, EventQueue


class TestEventQueue:
    def test_pops_in_time_order(self):
        q = EventQueue()
        q.push(3.0, EventKind.CALLBACK, "c")
        q.push(1.0, EventKind.CALLBACK, "a")
        q.push(2.0, EventKind.CALLBACK, "b")
        assert [q.pop().payload for _ in range(3)] == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        q = EventQueue()
        for name in ("first", "second", "third"):
            q.push(5.0, EventKind.CALLBACK, name)
        assert [q.pop().payload for _ in range(3)] == [
            "first",
            "second",
            "third",
        ]

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-0.1, EventKind.CALLBACK)

    def test_cancelled_events_are_skipped(self):
        q = EventQueue()
        keep = q.push(1.0, EventKind.CALLBACK, "keep")
        drop = q.push(0.5, EventKind.CALLBACK, "drop")
        drop.cancelled = True
        assert q.pop() is keep

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        drop = q.push(0.5, EventKind.CALLBACK)
        q.push(2.0, EventKind.CALLBACK)
        drop.cancelled = True
        assert q.peek_time() == 2.0

    def test_peek_time_empty(self):
        assert EventQueue().peek_time() is None

    def test_len_counts_pushed_events(self):
        q = EventQueue()
        q.push(1.0, EventKind.CALLBACK)
        q.push(2.0, EventKind.CALLBACK)
        assert len(q) == 2

    def test_event_ordering_operator(self):
        early = Event(1.0, 0, EventKind.CALLBACK, None)
        late = Event(2.0, 1, EventKind.CALLBACK, None)
        assert early < late
        assert not late < early


@pytest.mark.parametrize("queue_cls", [EventQueue])
class TestQueueOrderingContract:
    """The (time, kind priority, seq) contract the engine's queue honours.

    FIFO among equal timestamps is load-bearing: a queue that silently
    reordered simultaneous events would change simulated schedules while
    still 'sorting by time'.
    """

    def test_equal_timestamps_pop_fifo(self, queue_cls):
        q = queue_cls()
        for i in range(50):
            q.push(5.0, EventKind.CALLBACK, i)
        assert [q.pop().payload for _ in range(50)] == list(range(50))

    def test_fifo_ties_survive_interleaved_pops(self, queue_cls):
        q = queue_cls()
        q.push(1.0, EventKind.CALLBACK, "a")
        q.push(1.0, EventKind.CALLBACK, "b")
        assert q.pop().payload == "a"
        # Pushing after a pop lands *behind* the still-queued tie.
        q.push(1.0, EventKind.CALLBACK, "c")
        assert [q.pop().payload, q.pop().payload] == ["b", "c"]

    def test_time_order_across_buckets(self, queue_cls):
        q = queue_cls()
        for t in (30.0, 0.01, 7.7, 0.02, 100.0):
            q.push(t, EventKind.CALLBACK, t)
        popped = [q.pop().payload for _ in range(5)]
        assert popped == sorted(popped)

    def test_negative_time_rejected(self, queue_cls):
        with pytest.raises(ValueError):
            queue_cls().push(-0.1, EventKind.CALLBACK)

    def test_cancelled_events_skipped(self, queue_cls):
        q = queue_cls()
        keep = q.push(1.0, EventKind.CALLBACK, "keep")
        drop = q.push(0.5, EventKind.CALLBACK, "drop")
        drop.cancelled = True
        assert q.pop() is keep
        assert q.pop() is None

    def test_peek_time_skips_cancelled(self, queue_cls):
        q = queue_cls()
        drop = q.push(0.5, EventKind.CALLBACK)
        q.push(2.0, EventKind.CALLBACK)
        drop.cancelled = True
        assert q.peek_time() == 2.0

    def test_empty_queue(self, queue_cls):
        q = queue_cls()
        assert q.pop() is None
        assert q.peek_time() is None
        assert len(q) == 0

    def test_engine_runs_on_any_impl(self, queue_cls):
        engine = SimulationEngine()
        assert isinstance(engine.queue, queue_cls)
        seen = []
        engine.register(EventKind.CALLBACK, lambda now, p: seen.append((now, p)))
        for t, p in ((2.0, "late"), (0.5, "early"), (0.5, "early2")):
            engine.schedule(t, EventKind.CALLBACK, p)
        engine.run()
        assert seen == [(0.5, "early"), (0.5, "early2"), (2.0, "late")]


class TestSimulationEngine:
    def test_clock_advances_monotonically(self):
        engine = SimulationEngine()
        seen = []
        engine.register(EventKind.CALLBACK, lambda now, _: seen.append(now))
        for t in (2.0, 0.5, 1.0):
            engine.schedule(t, EventKind.CALLBACK)
        engine.run()
        assert seen == sorted(seen) == [0.5, 1.0, 2.0]

    def test_cannot_schedule_into_the_past(self):
        engine = SimulationEngine()

        def handler(now, _):
            with pytest.raises(ValueError):
                engine.schedule(now - 1.0, EventKind.CALLBACK)

        engine.register(EventKind.CALLBACK, handler)
        engine.schedule(5.0, EventKind.CALLBACK)
        engine.run()

    def test_schedule_in_relative_delay(self):
        engine = SimulationEngine()
        seen = []

        def handler(now, payload):
            seen.append((now, payload))
            if payload == "first":
                engine.schedule_in(1.5, EventKind.CALLBACK, "second")

        engine.register(EventKind.CALLBACK, handler)
        engine.schedule(1.0, EventKind.CALLBACK, "first")
        engine.run()
        assert seen == [(1.0, "first"), (2.5, "second")]

    def test_negative_delay_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            engine.schedule_in(-1.0, EventKind.CALLBACK)

    def test_missing_handler_raises(self):
        engine = SimulationEngine()
        engine.schedule(0.0, EventKind.ARRIVAL)
        with pytest.raises(RuntimeError, match="no handler"):
            engine.run()

    def test_max_events_guards_livelock(self):
        engine = SimulationEngine(max_events=10)

        def reschedule(now, _):
            engine.schedule_in(0.1, EventKind.CALLBACK)

        engine.register(EventKind.CALLBACK, reschedule)
        engine.schedule(0.0, EventKind.CALLBACK)
        with pytest.raises(RuntimeError, match="max_events"):
            engine.run()

    def test_step_processes_one_event(self):
        engine = SimulationEngine()
        seen = []
        engine.register(EventKind.CALLBACK, lambda now, p: seen.append(p))
        engine.schedule(0.0, EventKind.CALLBACK, "a")
        engine.schedule(1.0, EventKind.CALLBACK, "b")
        assert engine.step() is True
        assert seen == ["a"]
        assert engine.step() is True
        assert engine.step() is False

    def test_step_enforces_max_events_guard(self):
        engine = SimulationEngine(max_events=3)

        def reschedule(now, _):
            engine.schedule_in(0.1, EventKind.CALLBACK)

        engine.register(EventKind.CALLBACK, reschedule)
        engine.schedule(0.0, EventKind.CALLBACK)
        for _ in range(3):
            assert engine.step() is True
        with pytest.raises(RuntimeError, match="max_events"):
            engine.step()

    def test_step_then_run_processes_remaining_events(self):
        engine = SimulationEngine()
        seen = []
        engine.register(EventKind.CALLBACK, lambda now, p: seen.append(p))
        for t, p in ((0.0, "a"), (1.0, "b"), (2.0, "c")):
            engine.schedule(t, EventKind.CALLBACK, p)
        assert engine.step() is True
        engine.run()
        assert seen == ["a", "b", "c"]
        assert engine.events_processed == 3

    def test_not_reentrant(self):
        engine = SimulationEngine()

        def recurse(now, _):
            engine.run()

        engine.register(EventKind.CALLBACK, recurse)
        engine.schedule(0.0, EventKind.CALLBACK)
        with pytest.raises(RuntimeError, match="re-entrant"):
            engine.run()

    def test_events_processed_counter(self):
        engine = SimulationEngine()
        engine.register(EventKind.CALLBACK, lambda now, _: None)
        for t in range(5):
            engine.schedule(float(t), EventKind.CALLBACK)
        engine.run()
        assert engine.events_processed == 5
