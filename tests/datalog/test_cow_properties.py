"""Property-based immutability of copy-on-write relation views.

A :class:`~repro.datalog.facts.Relation` shares its columns, row-id map,
index dicts and index buckets with every view frozen from it, and the
live side copies pointers on its first write after a freeze and a
bucket on the first write to that bucket.  The invariant: whatever the
interleaving of inserts, deletes, freezes, clears and restores, every
view keeps exactly the rows it had when it was taken — by membership,
by full scan and by every single- and multi-column index lookup — and
the live relation matches a reference set.  A three-value domain over
three columns keeps buckets colliding, so most writes land in a bucket
some view still shares.
"""

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog.facts import FactStore, PredicateDecl

VALUES = ("a", "b", "c")
ARITY = 3
PATTERNS = list(itertools.product((None,) + VALUES, repeat=ARITY))

#: Writes dominate so rows accumulate between freezes and clears.
KINDS = ("add",) * 6 + ("remove",) * 4 + (
    "freeze", "fork", "clear", "save", "restore")
rows = st.tuples(*[st.integers(0, len(VALUES) - 1)] * ARITY)
ops_strategy = st.lists(st.tuples(st.sampled_from(KINDS), rows),
                        min_size=10, max_size=60)


def _assert_holds(relation, expected, symbols):
    """*relation* holds exactly the code rows *expected*, on every path."""
    assert set(relation.row_codes()) == expected
    assert len(relation) == len(expected)
    decoded = [tuple(symbols.value(code) for code in codes)
               for codes in expected]
    for pattern in PATTERNS:
        brute = sorted(row for row in decoded
                       if all(want is None or want == got
                              for want, got in zip(pattern, row)))
        assert sorted(relation.lookup(pattern)) == brute, pattern


@given(ops=ops_strategy)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_views_never_change_and_live_matches_reference(ops):
    store = FactStore([PredicateDecl("p", ("x", "y", "z"))])
    symbols = store.symbols
    codes = [symbols.intern(value) for value in VALUES]
    relation = store.relation("p")
    reference = set()
    views = []  # (view relation, the rows it must keep)
    saved = None
    for kind, indexes in ops:
        if kind in ("add", "remove"):
            row = tuple(codes[index] for index in indexes)
            if kind == "add":
                assert relation.add_codes(row) == (row not in reference)
                reference.add(row)
            else:
                assert relation.remove_codes(row) == (row in reference)
                reference.discard(row)
        elif kind == "freeze":
            views.append((relation.freeze_view(), frozenset(reference)))
        elif kind == "fork":
            fork = store.fork_shared()
            views.append((fork.relation("p"), frozenset(reference)))
        elif kind == "clear":
            relation.clear()
            reference.clear()
        elif kind == "save":
            saved = store.snapshot_codes()
        elif saved is not None:
            store.restore_codes(saved)
            reference = set(saved["p"])
        _assert_holds(relation, reference, symbols)
        for view, rows_at_freeze in views:
            _assert_holds(view, rows_at_freeze, symbols)
