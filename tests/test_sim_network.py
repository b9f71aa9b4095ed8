"""Unit and property tests for the max-min fair bandwidth-sharing network."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import AllOf, Engine, Link, Network


def make_net():
    eng = Engine()
    return eng, Network(eng)


def run_transfer(nbytes, capacity, nflows=1, cap=math.inf, latency=0.0):
    """Run ``nflows`` identical transfers over one link; return durations."""
    eng, net = make_net()
    link = Link("l", capacity)
    flows = [
        net.transfer(nbytes, [link], cap=cap, latency=latency, tag=i)
        for i in range(nflows)
    ]
    eng.run()
    return [f.elapsed for f in flows]


# ---------------------------------------------------------------------------
# Single-flow basics
# ---------------------------------------------------------------------------


def test_single_flow_duration():
    (dt,) = run_transfer(nbytes=1000.0, capacity=100.0)
    assert dt == pytest.approx(10.0)


def test_flow_cap_limits_rate():
    (dt,) = run_transfer(nbytes=1000.0, capacity=100.0, cap=10.0)
    assert dt == pytest.approx(100.0)


def test_latency_added_before_transfer():
    (dt,) = run_transfer(nbytes=1000.0, capacity=100.0, latency=5.0)
    # elapsed counts from activation; check total wall time instead
    eng, net = make_net()
    link = Link("l", 100.0)
    flow = net.transfer(1000.0, [link], latency=5.0)
    eng.run()
    assert flow.finished_at == pytest.approx(15.0)


def test_zero_byte_transfer_completes_instantly():
    eng, net = make_net()
    link = Link("l", 100.0)
    flow = net.transfer(0.0, [link])
    eng.run()
    assert flow.finished_at == 0.0
    assert flow.triggered


# ---------------------------------------------------------------------------
# A flow is its own completion event
# ---------------------------------------------------------------------------


def test_yield_flow_resumes_with_the_flow_before_and_after_completion():
    eng, net = make_net()
    link = Link("l", 100.0)
    flows = [net.transfer(1000.0, [link], tag=i) for i in range(4)]
    empty = net.transfer(0.0, [link], latency=1.0)
    got = []

    def early(flow):
        got.append(("early", flow, (yield flow), eng.now))

    def late(flow):
        yield eng.timeout(50.0)
        assert flow.triggered
        got.append(("late", flow, (yield flow), eng.now))

    for flow in [*flows, empty]:
        eng.process(early(flow))
        eng.process(late(flow))
    eng.run()
    assert len(got) == 10
    for when, flow, value, now in got:
        assert value is flow
        assert now == (50.0 if when == "late" else flow.finished_at)
    # Four flows finishing together complete in one batch.
    assert {flow.finished_at for flow in flows} == {40.0}


def test_flow_value_passes_through_guards_and_composites():
    eng, net = make_net()
    link = Link("l", 100.0)
    a = net.transfer(1000.0, [link])
    b = net.transfer(500.0, [link])

    def waiter():
        guarded = yield eng.timeout_guard(a, 100.0)
        both = yield AllOf([a, b])
        return guarded, both

    assert eng.run_process(waiter()) == (a, [a, b])
    assert a.value is a


def test_only_the_network_completes_a_flow():
    eng, net = make_net()
    flow = net.transfer(1000.0, [Link("l", 100.0)])
    with pytest.raises(AttributeError):
        flow.succeed(None)
    assert not flow.triggered
    eng.run()
    assert flow.triggered and flow.finished_at == 10.0


def test_negative_size_rejected():
    eng, net = make_net()
    with pytest.raises(ValueError):
        net.transfer(-1.0, [Link("l", 1.0)])


def test_achieved_rate():
    eng, net = make_net()
    link = Link("l", 250.0)
    flow = net.transfer(1000.0, [link])
    eng.run()
    assert flow.achieved_rate == pytest.approx(250.0)


# ---------------------------------------------------------------------------
# Fair sharing
# ---------------------------------------------------------------------------


def test_two_flows_share_link_equally():
    durations = run_transfer(nbytes=1000.0, capacity=100.0, nflows=2)
    assert durations == [pytest.approx(20.0)] * 2


def test_many_identical_flows_finish_together():
    durations = run_transfer(nbytes=100.0, capacity=1000.0, nflows=50)
    assert all(d == pytest.approx(durations[0]) for d in durations)
    assert durations[0] == pytest.approx(50 * 100.0 / 1000.0)


def test_late_arrival_slows_first_flow():
    eng, net = make_net()
    link = Link("l", 100.0)
    first = net.transfer(1000.0, [link], tag="first")
    second = net.transfer(1000.0, [link], latency=5.0, tag="second")
    eng.run()
    # first: 5s alone (500B) then shares; remaining 500B at 50 B/s = 10s
    assert first.finished_at == pytest.approx(15.0)
    # second: shares 50B/s for 10s (500B), then alone at 100B/s for 5s
    assert second.finished_at == pytest.approx(20.0)


def test_completion_releases_bandwidth():
    eng, net = make_net()
    link = Link("l", 100.0)
    small = net.transfer(100.0, [link], tag="small")
    big = net.transfer(1000.0, [link], tag="big")
    eng.run()
    # both at 50 B/s until small finishes at t=2 (100B);
    # big then has 900B left at 100 B/s -> t = 2 + 9 = 11
    assert small.finished_at == pytest.approx(2.0)
    assert big.finished_at == pytest.approx(11.0)


def test_capped_flow_leaves_headroom_for_others():
    eng, net = make_net()
    link = Link("l", 100.0)
    capped = net.transfer(100.0, [link], cap=10.0, tag="capped")
    free = net.transfer(900.0, [link], tag="free")
    eng.run()
    # capped runs at 10; free gets the remaining 90 -> both end at t=10
    assert capped.finished_at == pytest.approx(10.0)
    assert free.finished_at == pytest.approx(10.0)


def test_two_link_path_bottleneck():
    eng, net = make_net()
    fast = Link("fast", 1000.0)
    slow = Link("slow", 10.0)
    flow = net.transfer(100.0, [fast, slow])
    eng.run()
    assert flow.elapsed == pytest.approx(10.0)


def test_cross_traffic_on_shared_bottleneck():
    """Two node NICs feeding one PFS link: PFS is the shared bottleneck."""
    eng, net = make_net()
    nic_a = Link("nic_a", 100.0)
    nic_b = Link("nic_b", 100.0)
    pfs = Link("pfs", 100.0)
    fa = net.transfer(500.0, [nic_a, pfs], tag="a")
    fb = net.transfer(500.0, [nic_b, pfs], tag="b")
    eng.run()
    # both share pfs at 50 B/s
    assert fa.finished_at == pytest.approx(10.0)
    assert fb.finished_at == pytest.approx(10.0)


def test_nic_limited_flow_frees_pfs_share():
    eng, net = make_net()
    nic_a = Link("nic_a", 10.0)  # this NIC is the flow's bottleneck
    nic_b = Link("nic_b", 1000.0)
    pfs = Link("pfs", 100.0)
    fa = net.transfer(100.0, [nic_a, pfs], tag="a")
    fb = net.transfer(900.0, [nic_b, pfs], tag="b")
    eng.run()
    # max-min: a gets 10 (NIC-bound), b gets the remaining 90 of the PFS
    assert fa.finished_at == pytest.approx(10.0)
    assert fb.finished_at == pytest.approx(10.0)


def test_capacity_change_rebalances_in_flight():
    eng, net = make_net()
    link = Link("l", 100.0)
    flow = net.transfer(1000.0, [link])

    def contention():
        yield eng.timeout(5.0)
        link.set_capacity(50.0)

    eng.process(contention())
    eng.run()
    # 5s at 100 B/s = 500B, then 500B at 50 B/s = 10s -> total 15s
    assert flow.finished_at == pytest.approx(15.0)


def test_zero_capacity_link_stalls_flow():
    eng, net = make_net()
    link = Link("l", 100.0)
    flow = net.transfer(1000.0, [link])

    def blackout():
        yield eng.timeout(2.0)
        link.set_capacity(0.0)
        yield eng.timeout(10.0)
        link.set_capacity(100.0)

    eng.process(blackout())
    eng.run()
    # 2s at 100 (200B), 10s stalled, then 800B at 100 -> ends at t=20
    assert flow.finished_at == pytest.approx(20.0)


def test_link_cannot_join_two_networks():
    eng = Engine()
    net1, net2 = Network(eng), Network(eng)
    link = Link("l", 1.0)
    net1.transfer(1.0, [link])
    with pytest.raises(RuntimeError):
        net2.transfer(1.0, [link])


def test_link_throughput_observability():
    eng, net = make_net()
    link = Link("l", 100.0)
    net.transfer(1000.0, [link])
    net.transfer(1000.0, [link])

    def probe():
        yield eng.timeout(1.0)
        return net.link_throughput(link)

    proc = eng.process(probe())
    eng.run()
    assert proc.value == pytest.approx(100.0)


# ---------------------------------------------------------------------------
# Property-based tests on the allocator
# ---------------------------------------------------------------------------


@given(
    nflows=st.integers(min_value=1, max_value=40),
    capacity=st.floats(min_value=1.0, max_value=1e6),
    nbytes=st.floats(min_value=1.0, max_value=1e9),
)
@settings(max_examples=60, deadline=None)
def test_property_identical_flows_duration(nflows, capacity, nbytes):
    """N identical flows over one link take exactly N*nbytes/capacity."""
    durations = run_transfer(nbytes=nbytes, capacity=capacity, nflows=nflows)
    expected = nflows * nbytes / capacity
    for d in durations:
        assert d == pytest.approx(expected, rel=1e-6)


@given(
    sizes=st.lists(
        st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=15
    ),
    capacity=st.floats(min_value=1.0, max_value=1e4),
)
@settings(max_examples=60, deadline=None)
def test_property_work_conservation(sizes, capacity):
    """Link is fully utilized until the last flow finishes.

    Total bytes / capacity == makespan when a single link is the only
    constraint, regardless of the flow size mix.
    """
    eng = Engine()
    net = Network(eng)
    link = Link("l", capacity)
    flows = [net.transfer(s, [link], tag=i) for i, s in enumerate(sizes)]
    eng.run()
    makespan = max(f.finished_at for f in flows)
    assert makespan == pytest.approx(sum(sizes) / capacity, rel=1e-6)


@given(
    caps=st.lists(
        st.floats(min_value=0.5, max_value=100.0), min_size=2, max_size=10
    )
)
@settings(max_examples=60, deadline=None)
def test_property_caps_respected(caps):
    """No flow ever beats its cap: elapsed >= nbytes/cap."""
    eng = Engine()
    net = Network(eng)
    link = Link("l", 1e6)  # effectively unconstrained
    nbytes = 1000.0
    flows = [net.transfer(nbytes, [link], cap=c, tag=i) for i, c in enumerate(caps)]
    eng.run()
    for f, c in zip(flows, caps):
        assert f.elapsed >= nbytes / c * (1 - 1e-9)
        assert f.elapsed == pytest.approx(nbytes / c, rel=1e-6)


@given(
    n_a=st.integers(min_value=1, max_value=10),
    n_b=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=40, deadline=None)
def test_property_maxmin_two_classes(n_a, n_b):
    """Flows through a private fast NIC + shared PFS split the PFS fairly."""
    eng = Engine()
    net = Network(eng)
    pfs = Link("pfs", 100.0)
    nic_a = Link("nic_a", 1e6)
    nic_b = Link("nic_b", 1e6)
    nbytes = 1000.0
    flows = [net.transfer(nbytes, [nic_a, pfs], tag=("a", i)) for i in range(n_a)]
    flows += [net.transfer(nbytes, [nic_b, pfs], tag=("b", i)) for i in range(n_b)]
    eng.run()
    total = n_a + n_b
    for f in flows:
        assert f.elapsed == pytest.approx(total * nbytes / 100.0, rel=1e-6)


@given(
    caps=st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=2,
                  max_size=5),
    flows=st.lists(
        st.tuples(
            st.floats(min_value=1.0, max_value=1e6),   # nbytes
            st.integers(min_value=0, max_value=4),     # first link
            st.integers(min_value=0, max_value=4),     # second link
            st.floats(min_value=0.0, max_value=5.0),   # start latency
        ),
        min_size=1, max_size=12,
    ),
)
@settings(max_examples=50, deadline=None)
def test_property_random_topology_invariants(caps, flows):
    """Random multi-link topologies: every flow completes, no flow beats
    its path's bottleneck, and the makespan respects each link's load."""
    eng = Engine()
    net = Network(eng)
    links = [Link(f"l{i}", c) for i, c in enumerate(caps)]
    live = []
    for nbytes, i, j, latency in flows:
        path_links = {links[i % len(links)], links[j % len(links)]}
        live.append((net.transfer(nbytes, list(path_links), latency=latency,
                                  tag=len(live)), path_links, nbytes, latency))
    eng.run()
    for flow, path_links, nbytes, latency in live:
        assert flow.triggered
        bottleneck = min(l.capacity for l in path_links)
        # can't move faster than the path's bottleneck allows
        assert flow.elapsed >= nbytes / bottleneck * (1 - 1e-6)
    # per-link work conservation lower bound on the makespan
    makespan = max(f.finished_at for f, *_ in live)
    for link in links:
        load = sum(n for f, p, n, lat in live if link in p)
        earliest = min((lat for f, p, n, lat in live if link in p),
                       default=0.0)
        if load:
            assert makespan >= earliest + load / link.capacity * (1 - 1e-6)
