"""The insertion-ordered multiset behind the database and program fact stores.

:class:`~repro.store.OrderedMultiset` must behave exactly like the list it
replaced — iteration order, earliest-occurrence removal, duplicates — while
answering counts and first-occurrence sequence numbers in O(1).  The
hypothesis property replays random add/remove/restore sequences against a
plain list of ``(sequence, item)`` pairs.
"""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.store import OrderedMultiset, updated


def test_iterates_like_a_list_with_duplicates():
    store = OrderedMultiset(["a", "b", "a", "c"])
    assert list(store) == ["a", "b", "a", "c"]
    assert len(store) == 4
    assert store.count("a") == 2 and store.count("z") == 0
    assert "b" in store and "z" not in store
    assert store.remove("a") == 0          # the earliest occurrence goes
    assert list(store) == ["b", "a", "c"]
    assert store.first_sequence("a") == 2
    assert store.first_sequence("z") is None
    with pytest.raises(ValueError):
        store.remove("z")


def test_unique_elements_get_no_container():
    store = OrderedMultiset(["a", "b"])
    assert all(type(where) is int for where in store._where.values())
    store.add("a")
    assert isinstance(store._where["a"], deque)
    store.remove("a")
    assert type(store._where["a"]) is int


def test_restore_puts_an_occurrence_back_in_place():
    store = OrderedMultiset(["a", "b", "c", "b"])
    first = store.remove("b")
    second = store.remove("b")
    store.add("d")
    store.restore("b", second)
    store.restore("b", first)
    assert list(store) == ["a", "b", "c", "b", "d"]
    assert store.first_sequence("b") == first


def test_every_edit_bumps_the_version():
    store = OrderedMultiset()
    versions = [store.version]
    store.add("a")
    versions.append(store.version)
    sequence = store.remove("a")
    versions.append(store.version)
    store.restore("a", sequence)
    versions.append(store.version)
    assert versions == sorted(set(versions))


def test_updated_mirrors_the_commit_discipline():
    assert updated(["a", "b", "a"], additions=["c"], retractions=["a", "z"]) == [
        "b", "a", "c",
    ]


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["add", "remove", "restore"]), st.sampled_from("abcd")),
    max_size=40,
))
def test_matches_a_reference_list(operations):
    store = OrderedMultiset()
    reference = []          # (sequence, item) in list order
    removed = []            # (sequence, item) taken out, restorable
    next_sequence = 0
    for operation, item in operations:
        if operation == "add":
            assert store.add(item) == next_sequence
            reference.append((next_sequence, item))
            next_sequence += 1
        elif operation == "remove":
            present = [entry for entry in reference if entry[1] == item]
            if not present:
                with pytest.raises(ValueError):
                    store.remove(item)
                continue
            assert store.remove(item) == present[0][0]
            reference.remove(present[0])
            removed.append(present[0])
        elif removed:
            sequence, restored = removed.pop()
            store.restore(restored, sequence)
            reference.append((sequence, restored))
            reference.sort()
        assert list(store) == [entry[1] for entry in reference]
        assert len(store) == len(reference)
        for candidate in "abcd":
            sequences = [s for s, i in reference if i == candidate]
            assert store.count(candidate) == len(sequences)
            assert store.first_sequence(candidate) == (
                sequences[0] if sequences else None
            )
            assert (candidate in store) == bool(sequences)
