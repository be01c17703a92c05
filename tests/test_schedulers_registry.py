"""Tests for the scheduler policy registry."""

import pytest

from repro.common.errors import SchedulingError
from repro.schedulers import Scheduler, make_scheduler
from repro.schedulers.composite import CompositeScheduler
from repro.schedulers.registry import (
    ALLOCATION_REGISTRY,
    PLACEMENT_REGISTRY,
    SCHEDULER_REGISTRY,
    available_policies,
    register_allocation,
    register_scheduler,
    resolve_allocation,
    resolve_placement,
    resolve_scheduler,
)


class TestRegistries:
    def test_builtins_registered(self):
        assert {"optimus", "drf", "tetris", "fifo", "srtf", "goodput", "oasis"} <= set(
            SCHEDULER_REGISTRY
        )
        assert {"optimus", "drf", "tetris", "fifo", "srtf", "goodput", "oasis"} <= set(
            ALLOCATION_REGISTRY
        )
        assert {"optimus", "spread", "pack"} <= set(PLACEMENT_REGISTRY)

    def test_available_policies_sorted(self):
        names = available_policies("allocation")
        assert list(names) == sorted(names)

    def test_available_policies_unknown_kind(self):
        with pytest.raises(SchedulingError, match="unknown registry kind"):
            available_policies("frobnicator")

    def test_legacy_tables_are_registry_aliases(self):
        from repro.schedulers.policies import ALLOCATION_POLICIES, PLACEMENT_POLICIES

        assert ALLOCATION_POLICIES is ALLOCATION_REGISTRY
        assert PLACEMENT_POLICIES is PLACEMENT_REGISTRY


class TestRoundTrip:
    def test_every_registered_scheduler_resolves(self):
        for name in available_policies("scheduler"):
            scheduler = make_scheduler(name)
            assert isinstance(scheduler, Scheduler)
            assert scheduler.name  # non-empty display name

    def test_hybrid_names_resolve_to_composite(self):
        scheduler = resolve_scheduler("srtf+pack")
        assert isinstance(scheduler, CompositeScheduler)

    def test_every_half_resolves(self):
        for name in available_policies("allocation"):
            assert callable(resolve_allocation(name))
        for name in available_policies("placement"):
            assert callable(resolve_placement(name))


class TestLookupErrors:
    def test_unknown_scheduler_lists_alternatives(self):
        with pytest.raises(SchedulingError) as excinfo:
            resolve_scheduler("nope")
        message = str(excinfo.value)
        assert "nope" in message
        assert "optimus" in message and "goodput" in message and "oasis" in message

    def test_unknown_halves_list_alternatives(self):
        with pytest.raises(SchedulingError, match="optimus"):
            resolve_allocation("nope")
        with pytest.raises(SchedulingError, match="pack"):
            resolve_placement("nope")

    def test_never_a_bare_keyerror(self):
        for resolver in (resolve_allocation, resolve_placement, resolve_scheduler):
            try:
                resolver("definitely-not-registered")
            except SchedulingError:
                pass
            else:  # pragma: no cover - the resolver must raise
                raise AssertionError("lookup of an unknown name did not raise")

    def test_hybrid_with_unknown_half_raises(self):
        with pytest.raises(SchedulingError):
            resolve_scheduler("nope+pack")


class TestRegistration:
    def test_conflicting_registration_rejected(self):
        marker = object()
        register_allocation("test-conflict", lambda jobs, cap: {})
        try:
            with pytest.raises(SchedulingError, match="already registered"):
                register_allocation("test-conflict", lambda jobs, cap: marker)
        finally:
            ALLOCATION_REGISTRY.pop("test-conflict", None)

    def test_same_object_reregistration_is_idempotent(self):
        def policy(jobs, capacity):
            return {}

        register_allocation("test-idempotent", policy)
        try:
            register_allocation("test-idempotent", policy)  # no raise
        finally:
            ALLOCATION_REGISTRY.pop("test-idempotent", None)

    def test_decorator_form(self):
        @register_scheduler("test-decorated")
        class Dummy(CompositeScheduler):
            def __init__(self, **kwargs):
                super().__init__("fifo", "pack", name="test-decorated", **kwargs)

        try:
            assert isinstance(make_scheduler("test-decorated"), Dummy)
        finally:
            SCHEDULER_REGISTRY.pop("test-decorated", None)


class TestEnvironmentDefault:
    def test_default_policy_fallback(self):
        # No name means the paper's scheduler; the CLI's --scheduler/--policy
        # flag is the one way to pick another.
        assert make_scheduler(None).name == "optimus"
        assert resolve_scheduler().name == "optimus"
