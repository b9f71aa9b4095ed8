"""Flow-class allocator edge cases, differentially tested vs. the reference.

The chaos tests in ``test_sim_network_fastpath.py`` sweep broad random
workloads; these tests pin the specific corners the class allocator
handles with dedicated code paths — zero-capacity links,
runtime capacity changes mid-transfer, cap-frozen classes arriving
while other classes are mid-flight — plus a second, structurally
different seeded fuzz (heavy class churn, frequent zero-capacity
flips).  Every assertion is full-trace ``==`` against
:mod:`repro.sim.network_ref`: bit-identity, not tolerance.
"""

import math
import random

import pytest

from repro.sim import Engine
from repro.sim import network as fastmod
from repro.sim import network_ref as refmod


def _trace(flows):
    return [(f.tag, f.started_at, f.finished_at, f.rate) for f in flows]


def _both(scenario, *args, **kwargs):
    """Run ``scenario(net_mod, ...)`` under both modules; return traces."""
    return (
        scenario(fastmod, *args, **kwargs),
        scenario(refmod, *args, **kwargs),
    )


# ---------------------------------------------------------------------------
# Zero-capacity links
# ---------------------------------------------------------------------------


def _zero_cap_from_start(net_mod):
    """Flows on a dead link stall until a chaos process revives it."""
    engine = Engine()
    net = net_mod.Network(engine)
    dead = net_mod.Link("dead", 0.0)
    live = net_mod.Link("live", 1e8)
    flows = [
        net.transfer(1e6, [dead], tag="blocked"),
        net.transfer(1e6, [dead, live], tag="blocked-path"),
        net.transfer(1e6, [live], tag="free"),
    ]

    def revive():
        yield engine.timeout(2.0)
        dead.set_capacity(5e7)

    engine.process(revive(), name="revive")
    engine.run()
    return _trace(flows)


def test_zero_capacity_link_stalls_then_revives():
    fast, ref = _both(_zero_cap_from_start)
    assert fast == ref
    by_tag = {t[0]: t for t in fast}
    # The unblocked flow finishes long before the revival...
    assert by_tag["free"][2] < 2.0
    # ...while both dead-link flows only finish after it.
    assert by_tag["blocked"][2] > 2.0
    assert by_tag["blocked-path"][2] > 2.0


def _zero_cap_forever(net_mod):
    """A permanently dead link: flows on it must never complete."""
    engine = Engine()
    net = net_mod.Network(engine)
    dead = net_mod.Link("dead", 0.0)
    live = net_mod.Link("live", 1e8)
    blocked = net.transfer(1e6, [dead], tag="blocked")
    free = net.transfer(1e6, [live], tag="free")
    engine.run()
    return _trace([blocked, free])


def test_zero_capacity_link_never_completes():
    fast, ref = _both(_zero_cap_forever)
    assert fast == ref
    blocked, free = fast
    assert blocked[2] is None  # finished_at
    assert free[2] is not None


# ---------------------------------------------------------------------------
# Runtime set_capacity mid-transfer
# ---------------------------------------------------------------------------


def _mid_transfer_steps(net_mod, steps):
    """Deterministic capacity staircase applied while flows are in flight."""
    engine = Engine()
    net = net_mod.Network(engine)
    shared = net_mod.Link("shared", 1e8)
    side = net_mod.Link("side", 4e7)
    flows = [
        net.transfer(5e8, [shared], tag=0),
        net.transfer(5e8, [shared, side], tag=1),
        net.transfer(5e8, [side], cap=1e7, tag=2),
    ]

    def staircase():
        for dt, cap in steps:
            yield engine.timeout(dt)
            shared.set_capacity(cap)

    engine.process(staircase(), name="staircase")
    engine.run()
    return _trace(flows)


@pytest.mark.parametrize(
    "steps",
    [
        # Shrink, then restore.
        [(1.0, 2e7), (2.0, 1e8)],
        # Drop to zero mid-transfer, then revive at a different value.
        [(1.5, 0.0), (1.5, 6e7)],
        # Redundant rewrite of the same value (must still re-checkpoint).
        [(1.0, 1e8), (1.0, 1e8)],
        # Rapid-fire changes within one simulated second.
        [(0.25, 5e7), (0.25, 0.0), (0.25, 9e7), (0.25, 3e7)],
    ],
)
def test_set_capacity_mid_transfer_bit_identical(steps):
    fast, ref = _both(_mid_transfer_steps, steps)
    assert fast == ref


# ---------------------------------------------------------------------------
# Cap-frozen classes joining mid-round
# ---------------------------------------------------------------------------


def _cap_frozen_late_join(net_mod):
    """Tiny-cap classes arrive while an uncapped class is mid-flight.

    The late arrivals' caps are far below their fair share, so the
    allocator freezes them at cap in the very first filling round while
    the incumbent class keeps absorbing the remainder.
    """
    engine = Engine()
    net = net_mod.Network(engine)
    backend = net_mod.Link("backend", 1e9)
    flows = [net.transfer(4e9, [backend], tag=("big", i)) for i in range(4)]

    def trickle():
        for i in range(6):
            yield engine.timeout(0.5)
            # Each arrival is its own (links, cap) class: cap varies.
            flows.append(
                net.transfer(1e6, [backend], cap=1e3 * (i + 1),
                             tag=("tiny", i))
            )

    engine.process(trickle(), name="trickle")
    engine.run()
    return _trace(flows)


def test_cap_frozen_class_joining_mid_round():
    fast, ref = _both(_cap_frozen_late_join)
    assert fast == ref
    # The tiny flows really were cap-limited, not share-limited.
    for tag, _started, _finished, rate in fast:
        if tag[0] == "tiny":
            assert rate <= 1e3 * 6 + 1e-6


def _all_frozen_leaves_headroom(net_mod):
    """Every class cap-frozen below link capacity: loop must terminate
    with unused headroom rather than spin looking for a saturated link."""
    engine = Engine()
    net = net_mod.Network(engine)
    link = net_mod.Link("l", 1e9)
    flows = [
        net.transfer(1e6, [link], cap=1e4 * (i + 1), tag=i) for i in range(5)
    ]
    engine.run()
    return _trace(flows)


def test_all_classes_cap_frozen_terminates_with_headroom():
    fast, ref = _both(_all_frozen_leaves_headroom)
    assert fast == ref
    for i, (_tag, _started, _finished, rate) in enumerate(fast):
        assert rate == pytest.approx(1e4 * (i + 1))


# ---------------------------------------------------------------------------
# Structured fuzz: heavy class churn + zero-capacity flips
# ---------------------------------------------------------------------------


def _churn_workload(net_mod, seed, nflows=80, nlinks=4):
    """Seeded fuzz biased toward the class allocator's hard cases.

    Differs from the broad chaos fuzz by design: many short flows so
    classes are installed and uninstalled constantly, caps drawn from a
    near-fair-share band so freezing happens mid-round (not just round
    one), and capacity flips that favour exact zero.
    """
    rng = random.Random(seed)
    engine = Engine()
    net = net_mod.Network(engine)
    links = [net_mod.Link(f"l{i}", rng.choice([1e6, 1e8, 1e9]))
             for i in range(nlinks)]
    flows = []

    def issue():
        for i in range(nflows):
            path = rng.sample(links, rng.randint(1, nlinks))
            if rng.random() < 0.25:
                path = path + [path[-1]]  # duplicated link
            # Caps clustered around plausible fair shares → mid-round
            # freezes; occasional inf keeps uncapped classes in play.
            cap = math.inf if rng.random() < 0.25 else rng.choice(
                [2e5, 9e5, 1.1e6, 2.4e7, 9.9e7, 2.6e8]
            )
            flows.append(net.transfer(
                rng.choice([256.0, 4e3, 1e5]), path, cap=cap,
                latency=rng.choice([0.0, 1e-4]), tag=i,
            ))
            if rng.random() < 0.7:
                yield engine.timeout(rng.random() * 0.01)

    def flip():
        for _ in range(10):
            yield engine.timeout(rng.random() * 0.05)
            link = rng.choice(links)
            if rng.random() < 0.5:
                link.set_capacity(0.0)
            else:
                link.set_capacity(rng.choice([1e6, 1e8, 1e9]))
        # Leave everything alive so the run terminates.
        for link in links:
            link.set_capacity(1e9)

    engine.process(issue(), name="issue")
    engine.process(flip(), name="flip")
    engine.run()
    return _trace(flows)


@pytest.mark.parametrize("seed", range(8))
def test_churn_fuzz_bit_identical_to_reference(seed):
    assert _churn_workload(fastmod, seed) == _churn_workload(refmod, seed)
