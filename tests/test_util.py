"""Tests for shared utilities."""

from repro.util.ids import IdGenerator, fresh_id


class TestIds:
    def test_generator_monotonic(self):
        gen = IdGenerator("x")
        assert gen() == "x:0"
        assert gen() == "x:1"

    def test_peek_does_not_consume(self):
        gen = IdGenerator("y")
        assert gen.peek() == "y:0"
        assert gen() == "y:0"

    def test_fresh_id_namespaced(self):
        a = fresh_id("testns")
        b = fresh_id("testns")
        assert a != b
        assert a.startswith("testns:")
