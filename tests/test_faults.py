"""repro.faults: deterministic injection, retry policy, blame records."""

import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    LinkPartition,
    PartyCrash,
    PartyFailure,
    RetryPolicy,
)
from repro.faults.blame import BlameRecord
from repro.faults.injector import DELIVER
from repro.util.errors import ConfigError


class TestFaultPlan:
    def test_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ConfigError):
            FaultPlan(drop=0.6, duplicate=0.6)
        with pytest.raises(ConfigError):
            FaultPlan(corrupt=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(delay=-0.1)

    def test_scripted_event_validation(self):
        with pytest.raises(ConfigError):
            PartyCrash("server9", at_step=1)
        with pytest.raises(ConfigError):
            PartyCrash("server0", at_step=-1)
        with pytest.raises(ConfigError):
            LinkPartition("server0", "server1", start=5, stop=5)

    def test_describe_mentions_every_active_fault(self):
        plan = FaultPlan(
            seed=9,
            drop=0.25,
            crashes=(PartyCrash("server1", at_step=3),),
            partitions=(LinkPartition("server0", "server1", 0, 4),),
        )
        text = plan.describe()
        assert "drop=0.25" in text
        assert "crash(server1@3)" in text
        assert "partition(server0->server1[0:4])" in text
        assert plan.fault_rate == 0.25

    def test_plan_is_hashable_for_frozen_config(self):
        plan = FaultPlan(drop=0.1, crashes=(PartyCrash("client", at_step=1),))
        assert hash(plan) == hash(FaultPlan(drop=0.1, crashes=(PartyCrash("client", at_step=1),)))


class TestRetryPolicy:
    def test_backoff_grows_then_caps(self):
        policy = RetryPolicy(base_timeout_s=1e-4, backoff=2.0, max_backoff_s=3e-4)
        waits = [policy.timeout_s(k) for k in (1, 2, 3, 4)]
        assert waits == [1e-4, 2e-4, 3e-4, 3e-4]

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_retries=0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(base_timeout_s=-1.0)


class TestFaultInjector:
    def test_decision_stream_is_a_pure_function_of_seed_link_index(self):
        plan = FaultPlan(seed=5, drop=0.3, duplicate=0.2, corrupt=0.2, delay=0.2)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        stream_a = [a.decide("server0", "server1").kind for _ in range(40)]
        stream_b = [b.decide("server0", "server1").kind for _ in range(40)]
        assert stream_a == stream_b
        assert set(stream_a) != {DELIVER}  # rates high enough to fire

    def test_links_do_not_perturb_each_other(self):
        plan = FaultPlan(seed=5, drop=0.5)
        solo = FaultInjector(plan)
        expected = [solo.decide("server0", "server1").kind for _ in range(20)]
        interleaved = FaultInjector(plan)
        got = []
        for _ in range(20):
            interleaved.decide("client", "server0")  # traffic on another link
            got.append(interleaved.decide("server0", "server1").kind)
            interleaved.decide("server1", "server0")
        assert got == expected

    def test_partition_window_black_holes_exactly_its_indices(self):
        plan = FaultPlan(partitions=(LinkPartition("server0", "server1", 2, 4),))
        inj = FaultInjector(plan)
        delivered = [inj.decide("server0", "server1").delivered for _ in range(6)]
        assert delivered == [True, True, False, False, True, True]
        # the reverse direction is untouched
        assert all(FaultInjector(plan).decide("server1", "server0").delivered for _ in range(6))

    def test_crash_fires_at_step_and_restart_heals(self):
        plan = FaultPlan(crashes=(PartyCrash("server1", at_step=3),))
        inj = FaultInjector(plan)
        inj.advance_step(2)
        assert not inj.crashed("server1")
        inj.advance_step(1)
        assert inj.crashed("server1")
        assert inj.crashed_among("server0", "server1") == "server1"
        inj.restart("server1")
        assert not inj.crashed("server1")
        inj.restart("server1")  # idempotent
        # a fired crash spec does not re-fire after restart
        inj.advance_step(5)
        assert not inj.crashed("server1")


class TestBlame:
    def test_render_names_party_link_and_reason(self):
        record = BlameRecord(
            party="server1",
            reason="retry-exhausted",
            link="server0->server1",
            step=7,
            attempts=9,
            evidence=("no ack",),
        )
        text = record.render()
        assert "server1" in text and "retry-exhausted" in text and "no ack" in text
        failure = PartyFailure(record)
        assert failure.party == "server1"
        assert failure.blame is record
