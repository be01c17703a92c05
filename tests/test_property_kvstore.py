"""Model-based property test for the KV store's indexes.

``KVStore`` keeps a sorted key list (prefix listings bisect into it) and a
key -> lease map (detaching a key does not scan the leases). Hypothesis
drives random sequences of puts, leased puts, deletes, CAS, revokes and
lease expiry; after every step the store's listings, glob matches and
lease attachments must equal a brute-force reference kept here.
"""

import fnmatch

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.errors import KVStoreError
from repro.k8s.kvstore import KVStore

MAX = "\U0010ffff"  # the largest code point: prefixes ending in it have no successor
KEYS = (
    "/nodes/a", "/pods/", "/pods/a", "/pods/ab", "/pods/b", "a", "b",
    "b\U0010fffe", "b" + MAX, "b" + MAX + "z", "c", MAX, MAX + "/x",
)
PREFIXES = (
    "",  # everything
    "/pods/",
    "/pods/a",  # a whole key, and a prefix of another
    MAX * 3,  # sorts after every key
    "b" + MAX,
    MAX,
    "/pods/c",  # between keys, matches nothing
)
PATTERNS = ("*", "/pods/*", "b*", "*x", "/nodes/?", "[ab]")

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ops = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(KEYS), st.integers(0, 3)),
    st.tuples(st.just("leased_put"), st.sampled_from(KEYS), st.integers(1, 4)),
    st.tuples(st.just("delete"), st.sampled_from(KEYS)),
    st.tuples(
        st.just("cas"),
        st.sampled_from(KEYS),
        st.sampled_from((None, "v0", "v1")),
        st.integers(0, 4),  # 0: no lease
    ),
    st.tuples(st.just("grant"), st.integers(1, 3)),
    st.tuples(st.just("revoke"), st.integers(1, 4)),
    st.tuples(st.just("expire"), st.integers(0, 2)),
)


class Reference:
    """The same semantics, kept the obvious way: scan and sort everything."""

    def __init__(self):
        self.data = {}
        self.leases = {}  # lease id -> (expires_at, set of keys)
        self.next_lease = 0
        self.now = 0
        self.revision = 0

    def detach(self, key):
        for _, keys in self.leases.values():
            keys.discard(key)

    def put(self, key, value, lease=None):
        if lease is not None and lease not in self.leases:
            raise KVStoreError("unknown lease")
        self.detach(key)
        if lease is not None:
            self.leases[lease][1].add(key)
        self.data[key] = value
        self.revision += 1
        return self.revision

    def delete(self, key):
        self.detach(key)
        if self.data.pop(key, None) is not None:
            self.revision += 1

    def cas(self, key, expected, value, lease=None):
        if self.data.get(key) != expected:
            return False
        self.put(key, value, lease)
        return True

    def grant(self, ttl):
        self.next_lease += 1
        self.leases[self.next_lease] = (self.now + ttl, set())
        return self.next_lease

    def revoke(self, lease):
        _, keys = self.leases.pop(lease, (None, set()))
        for key in sorted(keys):
            self.delete(key)

    def expire(self):
        for lease in sorted(self.leases):
            if self.now >= self.leases[lease][0]:
                self.revoke(lease)


def apply(store, ref, op):
    """Run *op* on both; they must agree on the outcome."""
    kind = op[0]
    if kind == "grant":
        assert store.grant_lease(op[1], now=ref.now) == ref.grant(op[1])
    elif kind == "revoke":
        store.revoke_lease(op[1])
        ref.revoke(op[1])
    elif kind == "expire":
        ref.now += op[1]
        store.expire_leases(ref.now)
        ref.expire()
    elif kind == "delete":
        store.delete(op[1])
        ref.delete(op[1])
    elif kind == "cas":
        args = (op[1], op[2], "v1", op[3] or None)
        agree(lambda: store.compare_and_swap(*args), lambda: ref.cas(*args))
    else:
        args = (op[1], f"v{op[2]}") if kind == "put" else (op[1], "leased", op[2])
        agree(lambda: store.put(*args), lambda: ref.put(*args))


def agree(call, mirror):
    """Both raise KVStoreError, or both return the same value."""
    try:
        outcome = ("ok", call())
    except KVStoreError:
        outcome = ("raised", None)
    try:
        expected = ("ok", mirror())
    except KVStoreError:
        expected = ("raised", None)
    assert outcome == expected


def check(store, ref):
    for prefix in PREFIXES:
        want = {k: ref.data[k] for k in sorted(ref.data) if k.startswith(prefix)}
        got = store.list_prefix(prefix)
        assert list(got.items()) == list(want.items()), prefix
    for pattern in PATTERNS:
        want = sorted(k for k in ref.data if fnmatch.fnmatch(k, pattern))
        assert store.keys(pattern) == want, pattern
    for lease in range(1, ref.next_lease + 1):
        assert store.has_lease(lease) == (lease in ref.leases)
        if lease in ref.leases:
            assert store.lease_keys(lease) == sorted(ref.leases[lease][1])
    assert len(store) == len(ref.data)
    assert store.revision == ref.revision


@SETTINGS
@given(st.lists(ops, max_size=40))
def test_indexes_match_brute_force_reference(sequence):
    store, ref = KVStore(), Reference()
    check(store, ref)
    for op in sequence:
        apply(store, ref, op)
        check(store, ref)
