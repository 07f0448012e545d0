from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upfmec.delay import net_delay, projected_delay, transit_epochs, worst_case_batch_delay

finite = st.floats(allow_nan=False, allow_infinity=False)
pos = st.floats(min_value=0.01, max_value=1e6, allow_nan=False)
nonneg = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


# -------------------------------------------------------------- frozen values


def test_projected_delay_saturated_queue():
    # 7 queued, no free slots, rate 4/epoch: (7+1-0)/4 + 1 epoch of service
    assert projected_delay(7.0, 0.0, 4.0, 1.0) == 3.0


def test_projected_delay_fast_path():
    assert projected_delay(0.0, 2.0, 4.0, 1.0) == 1.0


def test_projected_delay_boundary_takes_slow_branch():
    # q == headroom is not strictly less, so the queueing branch applies
    assert projected_delay(2.0, 2.0, 4.0, 1.0) == (1.0 / 4.0) * 1.0 + 1.0


def test_mec_projected_delay_values():
    assert projected_delay(5.0, 0.0, 2.0, 1.0) == 4.0
    assert projected_delay(0.0, 1.0, 2.0, 1.0) == 1.0


def test_net_delay_shared_link():
    # 10 sharers x 1500 B x 8 over 150 Mbps = 150e3 bits/ms
    assert net_delay(10, 1500.0, 150e3) == 0.8


def test_net_delay_empty_link_is_free():
    assert net_delay(0, 1500.0, 150e3) == 0.0


def test_worst_case_batch_delay_values():
    assert worst_case_batch_delay(3.0, 5.0, 0.0, 4.0) == 2.0
    assert worst_case_batch_delay(1.0, 0.0, 2.0, 4.0) == 0.0


def test_transit_epochs_rounds_up():
    assert transit_epochs(0.0, 1.0) == 0
    assert transit_epochs(0.8, 1.0) == 1
    assert transit_epochs(2.0, 1.0) == 2
    assert transit_epochs(2.1, 1.0) == 3


# ------------------------------------------------------------- domain errors


def test_projected_delay_rejects_bad_inputs():
    with pytest.raises(ValueError):
        projected_delay(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        projected_delay(1.0, 0.0, 4.0, 0.0)
    with pytest.raises(ValueError):
        projected_delay(-1.0, 0.0, 4.0, 1.0)


def test_net_delay_rejects_bad_inputs():
    with pytest.raises(ValueError):
        net_delay(-1, 1500.0, 150e3)
    with pytest.raises(ValueError):
        net_delay(1, 1500.0, 0.0)


def test_transit_epochs_rejects_negative():
    with pytest.raises(ValueError):
        transit_epochs(-0.1, 1.0)


# ---------------------------------------------------------------- properties


@settings(max_examples=200, deadline=None)
@given(q=nonneg, h=nonneg, c=pos, delta=pos)
def test_projected_delay_never_below_delta(q, h, c, delta):
    assert projected_delay(q, h, c, delta) >= delta


@settings(max_examples=200, deadline=None)
@given(q=nonneg, dq=nonneg, h=nonneg, c=pos)
def test_projected_delay_monotone_in_queue(q, dq, h, c):
    assert projected_delay(q + dq, h, c, 1.0) >= projected_delay(q, h, c, 1.0)


@settings(max_examples=200, deadline=None)
@given(q=nonneg, h=nonneg, dh=nonneg, c=pos)
def test_projected_delay_antitone_in_headroom(q, h, dh, c):
    assert projected_delay(q, h + dh, c, 1.0) <= projected_delay(q, h, c, 1.0)


@settings(max_examples=200, deadline=None)
@given(q=nonneg, h=nonneg, c=pos, dc=pos)
def test_projected_delay_antitone_in_capacity(q, h, c, dc):
    assert projected_delay(q, h, c + dc, 1.0) <= projected_delay(q, h, c, 1.0)


@settings(max_examples=200, deadline=None)
@given(a=st.integers(0, 1000), b=st.integers(0, 1000), bw=pos)
def test_net_delay_linear_in_share(a, b, bw):
    total = net_delay(a + b, 1500.0, bw)
    assert total == pytest.approx(net_delay(a, 1500.0, bw) + net_delay(b, 1500.0, bw))


@settings(max_examples=200, deadline=None)
@given(q=nonneg, x=nonneg, dx=nonneg, h=nonneg, c=pos)
def test_worst_case_monotone_in_batch(q, x, dx, h, c):
    assert worst_case_batch_delay(q, x + dx, h, c) >= worst_case_batch_delay(q, x, h, c) >= 0.0
