"""Clock-source regressions for snapshot/session age accounting.

Ages (``SchemaSnapshot.age_seconds``, read directly and on the snapshot a
service request receives, and the replication lag gauges built on them) must be anchored to
``time.monotonic()``.  A wall-clock anchor silently corrupts every age
the moment NTP steps the clock: a backwards step yields negative ages
(lag gauges go negative, staleness checks always pass), a forwards
step ages every snapshot at once (spurious staleness evictions).

These tests simulate both failure modes by stepping ``time.time`` a
million seconds in each direction and demanding the ages not move —
they fail against any implementation that consults the wall clock —
then step ``time.monotonic`` itself and demand the ages track it
exactly.
"""

import time

import pytest

from repro.manager import SchemaManager

SOURCE = """
schema ClockS is
type CT is [ x: int; ] end type CT;
end schema ClockS;
"""


@pytest.fixture
def service():
    manager = SchemaManager()
    svc = manager.serve(readers=2)
    manager.define(SOURCE)
    yield svc
    svc.close()


def step_wall_clock(monkeypatch, delta):
    real = time.time

    def stepped():
        return real() + delta

    monkeypatch.setattr(time, "time", stepped)


def step_monotonic(monkeypatch, delta):
    real = time.monotonic

    def stepped():
        return real() + delta

    monkeypatch.setattr(time, "monotonic", stepped)


@pytest.mark.parametrize("delta", [-1_000_000.0, 1_000_000.0])
def test_ages_ignore_wall_clock_steps(service, monkeypatch, delta):
    snapshot = service.snapshot()
    before = snapshot.age_seconds()
    step_wall_clock(monkeypatch, delta)
    after = snapshot.age_seconds()
    # The step is a million seconds; genuine elapsed time in between is
    # microseconds.  Any wall-clock leakage shows up at full magnitude.
    assert abs(after - before) < 1.0
    assert after >= 0.0

    reader = service.read(lambda snapshot: snapshot)
    age_before = reader.age_seconds()
    step_wall_clock(monkeypatch, -delta)
    assert abs(reader.age_seconds() - age_before) < 1.0


def test_ages_track_the_monotonic_clock(service, monkeypatch):
    snapshot = service.snapshot()
    base = snapshot.age_seconds()
    step_monotonic(monkeypatch, 42.0)
    aged = snapshot.age_seconds()
    assert aged == pytest.approx(base + 42.0, abs=1.0)

    reader = service.read(lambda snapshot: snapshot)
    base = reader.age_seconds()
    step_monotonic(monkeypatch, 7.0)
    assert reader.age_seconds() == pytest.approx(base + 7.0, abs=1.0)
