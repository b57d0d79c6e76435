"""Coalescing, padding, rejection, and max-wait expiry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError, ParameterError
from repro.ntt.params import STANDARD_PARAMS, NTTParams
from repro.serve.batcher import BatchPolicy, CoalescingBatcher, PolyBatch
from repro.serve.request import Request

TINY_N = 16


def capacity_of(_key):
    return 3


@pytest.fixture
def batcher():
    return CoalescingBatcher(BatchPolicy(max_wait_s=1e-3), capacity_of)


class TestPolicy:
    def test_negative_wait_rejected(self):
        with pytest.raises(ParameterError):
            BatchPolicy(max_wait_s=-1.0)

    def test_zero_max_batch_rejected(self):
        with pytest.raises(ParameterError):
            BatchPolicy(max_batch=0)

    def test_effective_capacity(self):
        assert BatchPolicy().effective_capacity(9) == 9
        assert BatchPolicy(max_batch=4).effective_capacity(9) == 4
        assert BatchPolicy(max_batch=40).effective_capacity(9) == 9


class TestPolyBatch:
    def test_mixed_params_rejected(self, tiny_request):
        batch = PolyBatch(key=tiny_request(0).batch_key, capacity=3)
        batch.add(tiny_request(0))
        with pytest.raises(ParameterError, match="incompatible"):
            batch.add(tiny_request(1, op="intt"))

    def test_mixed_operands_rejected(self, tiny_request):
        a = tiny_request(0, op="polymul", operand=[1] * TINY_N)
        batch = PolyBatch(key=a.batch_key, capacity=3)
        batch.add(a)
        with pytest.raises(ParameterError, match="incompatible"):
            batch.add(tiny_request(1, op="polymul", operand=[2] * TINY_N))

    def test_overfill_rejected(self, tiny_request):
        batch = PolyBatch(key=tiny_request(0).batch_key, capacity=1)
        batch.add(tiny_request(0))
        with pytest.raises(CapacityError):
            batch.add(tiny_request(1))

    def test_padding_counts_free_slots(self, tiny_request):
        batch = PolyBatch(key=tiny_request(0).batch_key, capacity=3)
        batch.add(tiny_request(0))
        assert (batch.size, batch.padding, batch.full) == (1, 2, False)

    def test_empty_batch_has_no_deadline(self, tiny_request):
        batch = PolyBatch(key=tiny_request(0).batch_key, capacity=3)
        with pytest.raises(CapacityError):
            batch.oldest_arrival_s
        with pytest.raises(CapacityError):
            batch.deadline_s(BatchPolicy(max_wait_s=1e-3))

    def test_oldest_arrival_survives_out_of_order_adds(self, tiny_request):
        # A failed chip re-enqueues older members into a newer batch.
        policy = BatchPolicy(max_wait_s=1e-3)
        batch = PolyBatch(key=tiny_request(0).batch_key, capacity=3)
        batch.add(tiny_request(0, arrival_s=0.5))
        assert batch.oldest_arrival_s == 0.5
        batch.add(tiny_request(1, arrival_s=0.2))
        batch.add(tiny_request(2, arrival_s=0.3))
        assert batch.oldest_arrival_s == 0.2
        assert batch.deadline_s(policy) == 0.2 + 1e-3

    def test_requests_given_at_construction_set_the_oldest(self, tiny_request):
        requests = [tiny_request(0, arrival_s=0.4),
                    tiny_request(1, arrival_s=0.1)]
        batch = PolyBatch(key=requests[0].batch_key, capacity=3,
                          requests=requests)
        assert batch.oldest_arrival_s == 0.1


class TestCoalescing:
    def test_full_batch_closes_immediately(self, batcher, tiny_request):
        assert batcher.add(tiny_request(0)) is None
        assert batcher.add(tiny_request(1)) is None
        full = batcher.add(tiny_request(2))
        assert full is not None and full.size == 3 and full.padding == 0
        assert len(batcher) == 0

    def test_incompatible_requests_open_separate_batches(self, batcher, tiny_request):
        batcher.add(tiny_request(0))
        batcher.add(tiny_request(1, op="intt"))
        assert len(batcher) == 2
        # Neither batch filled: two distinct keys, one request each.
        assert batcher.take_expired(float("inf")) and len(batcher) == 0

    def test_max_wait_expiry(self, batcher, tiny_request):
        batcher.add(tiny_request(0, arrival_s=0.0))
        batcher.add(tiny_request(1, arrival_s=0.0004))
        assert batcher.next_deadline_s() == pytest.approx(1e-3)
        assert batcher.take_expired(0.0009) == []
        expired = batcher.take_expired(1e-3)
        assert len(expired) == 1 and expired[0].size == 2 and expired[0].padding == 1
        assert batcher.next_deadline_s() == float("inf")

    def test_deadline_tracks_oldest_request(self, batcher, tiny_request):
        batcher.add(tiny_request(0, arrival_s=0.5))
        batcher.add(tiny_request(1, arrival_s=0.2))  # late-added but older
        assert batcher.next_deadline_s() == pytest.approx(0.201)

    def test_drain_pops_everything(self, batcher, tiny_request):
        batcher.add(tiny_request(0))
        batcher.add(tiny_request(1, op="intt"))
        drained = batcher.drain()
        assert sorted(b.size for b in drained) == [1, 1]
        assert len(batcher) == 0 and batcher.drain() == []

    def test_max_batch_policy_caps_capacity(self, tiny_request):
        batcher = CoalescingBatcher(
            BatchPolicy(max_wait_s=1e-3, max_batch=2), capacity_of
        )
        assert batcher.add(tiny_request(0)) is None
        full = batcher.add(tiny_request(1))
        assert full is not None and full.capacity == 2


class TestEdgeCases:
    def test_simultaneous_expiry_ties_pop_together(self, batcher, tiny_request):
        # Two keys opened at the same arrival instant expire at the same
        # deadline; one take_expired pops both, in insertion order.
        batcher.add(tiny_request(0, arrival_s=0.5))
        batcher.add(tiny_request(1, op="intt", arrival_s=0.5))
        deadline = batcher.next_deadline_s()
        assert deadline == pytest.approx(0.501)
        expired = batcher.take_expired(deadline)
        assert len(expired) == 2
        assert [b.key[1] for b in expired] == ["ntt", "intt"]
        assert batcher.next_deadline_s() == float("inf")

    def test_expiry_tie_leaves_later_batches_open(self, batcher, tiny_request):
        batcher.add(tiny_request(0, arrival_s=0.0))
        batcher.add(tiny_request(1, op="intt", arrival_s=0.0))
        batcher.add(tiny_request(2, op="polymul",
                                 operand=[1] * TINY_N, arrival_s=0.0005))
        expired = batcher.take_expired(1e-3)
        assert {b.key[1] for b in expired} == {"ntt", "intt"}
        assert len(batcher) == 1  # the polymul batch still has 0.5 ms
        assert batcher.next_deadline_s() == pytest.approx(0.0015)

    def test_drain_preserves_insertion_order(self, batcher, tiny_request):
        batcher.add(tiny_request(0, op="intt"))
        batcher.add(tiny_request(1))            # ntt opens second
        batcher.add(tiny_request(2, op="intt"))  # joins the first batch
        drained = batcher.drain()
        assert [b.key[1] for b in drained] == ["intt", "ntt"]
        assert [b.size for b in drained] == [2, 1]

    def test_capacity_one_batches_close_on_every_add(self, tiny_request):
        batcher = CoalescingBatcher(BatchPolicy(max_wait_s=1e-3), lambda key: 1)
        for i in range(3):
            full = batcher.add(tiny_request(i))
            assert full is not None
            assert full.size == full.capacity == 1 and full.padding == 0
        assert len(batcher) == 0 and batcher.next_deadline_s() == float("inf")

    def test_max_batch_one_policy_equivalent(self, tiny_request):
        # Policy cap of 1 over a larger engine capacity behaves the same.
        batcher = CoalescingBatcher(
            BatchPolicy(max_wait_s=1e-3, max_batch=1), capacity_of
        )
        full = batcher.add(tiny_request(0))
        assert full is not None and full.capacity == 1

    def test_id_factory_gives_per_batcher_ids(self, tiny_request):
        import itertools

        batcher = CoalescingBatcher(
            BatchPolicy(max_wait_s=1e-3), lambda key: 1,
            id_factory=itertools.count().__next__,
        )
        ids = [batcher.add(tiny_request(i)).batch_id for i in range(3)]
        assert ids == [0, 1, 2]


# -- generated interleavings: the running counts match a recount --------------

PROP_RING = "tiny-batcher-prop"
TENANTS = ("a", "b", "c")
OPS = ("ntt", "intt")
GROUPINGS = {
    "by-key": None,
    "by-tenant-and-key": lambda request: (request.tenant, request.batch_key),
}

steps = st.lists(
    st.one_of(
        # The lag back-dates an arrival: out-of-order adds, as when a
        # failed chip re-enqueues older requests.
        st.tuples(st.just("add"), st.sampled_from(TENANTS),
                  st.sampled_from(OPS), st.sampled_from((0.0, 5e-5, 3e-4))),
        st.tuples(st.just("pop"), st.integers(min_value=0, max_value=7)),
        st.tuples(st.just("take_expired"),
                  st.floats(min_value=0.0, max_value=3e-3)),
        st.tuples(st.just("drain")),
    ),
    max_size=60,
)


@pytest.fixture(scope="module")
def prop_ring():
    STANDARD_PARAMS[PROP_RING] = NTTParams(n=TINY_N, q=97,
                                           name="batcher property ring")
    yield PROP_RING
    STANDARD_PARAMS.pop(PROP_RING, None)


def assert_counts_match(batcher):
    members = [request for _, batch in batcher.open_items()
               for request in batch.requests]
    assert len(batcher) == len(members)
    for tenant in TENANTS:
        assert batcher.tenant_waiting(tenant) == sum(
            1 for request in members if request.tenant == tenant)
    assert batcher.next_deadline_s() == min(
        (min(request.arrival_s for request in batch.requests)
         + batcher.policy.max_wait_s
         for _, batch in batcher.open_items()),
        default=float("inf"))


@pytest.mark.parametrize("grouping", sorted(GROUPINGS))
@settings(max_examples=60, deadline=None)
@given(steps=steps)
def test_waiting_counts_match_a_recount(prop_ring, grouping, steps):
    batcher = CoalescingBatcher(BatchPolicy(max_wait_s=1e-3), capacity_of,
                                group_of=GROUPINGS[grouping])
    now = 0.0
    for request_id, (action, *args) in enumerate(steps):
        now += 1e-4
        if action == "add":
            tenant, op, lag = args
            batcher.add(Request(
                request_id=request_id, op=op, params_name=prop_ring,
                payload=tuple(range(TINY_N)), arrival_s=max(0.0, now - lag),
                tenant=tenant))
        elif action == "pop":
            groups = [group for group, _ in batcher.open_items()]
            if groups:
                batcher.pop(groups[args[0] % len(groups)])
        elif action == "take_expired":
            batcher.take_expired(now + args[0])
        else:
            batcher.drain()
        assert_counts_match(batcher)
