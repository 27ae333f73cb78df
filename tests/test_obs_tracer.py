"""Unit tests for the span tracer (repro.obs.tracer)."""

import pytest

from repro.obs.tracer import NULL_TRACER, NullTracer, SpanTracer


class TestSpanBasics:
    def test_nested_spans_parent_links(self):
        tracer = SpanTracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.depth == 1
        assert outer.parent_id is None
        assert outer.depth == 0
        assert [s.name for s in tracer.finished] == ["outer", "inner"]

    def test_sim_seconds_from_cursor(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            tracer.advance_sim(1.0)
            with tracer.span("inner"):
                tracer.advance_sim(2.0)
            tracer.advance_sim(0.5)
        outer = tracer.find("outer")[0]
        inner = tracer.find("inner")[0]
        assert inner.sim_seconds == pytest.approx(2.0)
        assert outer.sim_seconds == pytest.approx(3.5)
        assert tracer.sim_cursor == pytest.approx(3.5)

    def test_wall_seconds_nonnegative(self):
        tracer = SpanTracer()
        with tracer.span("op"):
            pass
        assert tracer.find("op")[0].wall_seconds >= 0.0

    def test_attributes_and_set(self):
        tracer = SpanTracer()
        with tracer.span("op", graph="LJ") as span:
            span.set("nnz", 42)
        record = tracer.find("op")[0].to_record()
        assert record["attributes"] == {"graph": "LJ", "nnz": 42}

    def test_error_status_propagates(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        span = tracer.find("boom")[0]
        assert span.status == "error"
        # The span is still closed with valid durations.
        assert span.sim_seconds == 0.0
        assert tracer.current_span is None

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError, match="seconds"):
            SpanTracer().advance_sim(-1.0)


class TestDecoratorAndRecord:
    def test_record_does_not_advance_cursor(self):
        tracer = SpanTracer()
        tracer.record("summary", sim_seconds=5.0, nbytes=10)
        assert tracer.sim_cursor == 0.0
        span = tracer.find("summary")[0]
        assert span.sim_seconds == pytest.approx(5.0)
        assert span.attributes["nbytes"] == 10
        assert span.status == "ok"

    def test_record_with_advance(self):
        tracer = SpanTracer()
        tracer.record("step", sim_seconds=2.0, advance=True)
        assert tracer.sim_cursor == pytest.approx(2.0)

    def test_record_under_open_span(self):
        tracer = SpanTracer()
        with tracer.span("parent") as parent:
            child = tracer.record("child", sim_seconds=1.0)
        assert child.parent_id == parent.span_id
        assert child.depth == 1

    def test_record_negative_rejected(self):
        with pytest.raises(ValueError, match="durations"):
            SpanTracer().record("x", sim_seconds=-1.0)


class TestLifecycle:
    def test_finished_in_creation_order(self):
        tracer = SpanTracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        assert [s.name for s in tracer.finished] == ["a", "b", "c"]
        ids = [s.span_id for s in tracer.finished]
        assert ids == sorted(ids)

    def test_to_records_schema(self):
        tracer = SpanTracer()
        with tracer.span("op"):
            tracer.advance_sim(1.0)
        (record,) = tracer.to_records()
        for key in (
            "type", "name", "span_id", "parent_id", "depth",
            "sim_seconds", "wall_seconds", "status", "attributes",
        ):
            assert key in record
        assert record["type"] == "span"

    def test_reset(self):
        tracer = SpanTracer()
        with tracer.span("op"):
            tracer.advance_sim(1.0)
        tracer.reset()
        assert tracer.finished == []
        assert tracer.sim_cursor == 0.0

    def test_reset_with_open_span_refused(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError, match="open"):
            with tracer.span("op"):
                tracer.reset()


class TestNullTracer:
    def test_noop_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("op") as span:
            span.set("k", "v")
            tracer.advance_sim(10.0)
        tracer.record("summary", sim_seconds=1.0)
        assert tracer.finished == []
        assert tracer.sim_cursor == 0.0
        assert tracer.to_records() == []

    def test_shared_instance_is_null(self):
        assert isinstance(NULL_TRACER, NullTracer)

    def test_public_surface_matches_span_tracer(self):
        """NullTracer must be a drop-in: identical public names, and the
        overridden callables keep SpanTracer's signatures."""
        import inspect

        def surface(cls):
            return {
                name
                for name in dir(cls)
                if not name.startswith("_")
            }

        assert surface(NullTracer) == surface(SpanTracer)
        for name in surface(SpanTracer):
            real = inspect.getattr_static(SpanTracer, name)
            null = inspect.getattr_static(NullTracer, name)
            assert isinstance(null, property) == isinstance(real, property), name
            if callable(real) and not isinstance(real, property):
                assert (
                    inspect.signature(getattr(SpanTracer, name))
                    == inspect.signature(getattr(NullTracer, name))
                ), name

    def test_inherited_members_are_inert(self):
        """The inherited accessors report an empty tracer forever."""
        tracer = NullTracer()
        with tracer.span("a"):
            tracer.record("b", sim_seconds=2.0, advance=True)
            tracer.advance_sim(1.0)
            # current_span is inherited; the null span never lands on
            # the stack, so there is no 'current' span even mid-block.
            assert tracer.current_span is None
        assert tracer.find("a") == []
        assert tracer.sim_cursor == 0.0
        tracer.reset()  # must not raise, even after 'open' spans
        assert tracer.to_records() == []

    def test_null_span_set_is_noop(self):
        tracer = NullTracer()
        with tracer.span("op") as span:
            span.set("key", "value")
        assert span.attributes == {}
