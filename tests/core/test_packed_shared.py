"""PackedModel ownership contract + shared-memory image round trips."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.classifier import HDClassifier
from repro.core.encoders import GenericEncoder
from repro.core.packed import PackedModel
from repro.core.shared import SharedModelArena


@pytest.fixture(scope="module")
def packed_setup():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(120, 12))
    y = rng.integers(0, 4, 120)
    enc = GenericEncoder(dim=256, num_levels=8, seed=5)
    clf = HDClassifier(enc, epochs=2, seed=5).fit(X, y)
    pm = PackedModel.from_classifier(clf)
    return pm, X


class TestOwnership:
    def test_fresh_model_owns_words(self, packed_setup):
        pm, _ = packed_setup
        assert pm.owns_words
        assert pm.shared_segment is None

    def test_with_words_default_adopts_buffer(self, packed_setup):
        pm, _ = packed_setup
        words = pm.class_words.copy()
        clone = pm.with_words(words)
        assert clone.class_words is not pm.class_words
        assert clone.encoder is pm.encoder  # encoder is shared, words are not
        words[0, 0] ^= np.uint64(1)
        assert clone.class_words[0, 0] == words[0, 0]  # adopted, not copied

    def test_with_words_copy_detaches(self, packed_setup):
        pm, _ = packed_setup
        words = pm.class_words.copy()
        clone = pm.with_words(words, copy=True)
        words[0, 0] ^= np.uint64(1)
        assert clone.class_words[0, 0] != words[0, 0]
        assert clone.owns_words

    def test_pickle_round_trip_owns_buffers(self, packed_setup):
        pm, X = packed_setup
        clone = pickle.loads(pickle.dumps(pm))
        assert clone.owns_words
        assert clone.shared_segment is None
        np.testing.assert_array_equal(clone.predict(X[:10]), pm.predict(X[:10]))

    def test_numpy_view_still_counts_as_owned(self, packed_setup):
        pm, _ = packed_setup
        # a slice of numpy-owned memory is self-contained: still owned
        assert pm.with_words(pm.class_words[:]).owns_words

    def test_pickle_of_foreign_buffer_model_owns(self, packed_setup):
        pm, _ = packed_setup
        blob = pm.class_words.tobytes()
        foreign = np.frombuffer(blob, dtype=np.uint64).reshape(
            pm.class_words.shape
        )
        view_backed = pm.with_words(foreign)
        assert not view_backed.owns_words  # bytes-backed, dies with blob
        clone = pickle.loads(pickle.dumps(view_backed))
        assert clone.owns_words

    def test_materialize_is_identity_for_owned(self, packed_setup):
        pm, _ = packed_setup
        assert pm.materialize() is pm


class TestSharedImage:
    def test_round_trip_bit_exact(self, packed_setup):
        pm, X = packed_setup
        with SharedModelArena(prefix="t_img") as arena:
            spec = pm.to_shared(arena)
            clone = PackedModel.from_shared(spec, arena)
            # class words are zero-copy read-only views of the segment
            assert clone.class_words.base is not None
            assert not clone.class_words.flags.writeable
            assert not clone.owns_words
            assert clone.shared_segment == spec.segment
            np.testing.assert_array_equal(
                clone.encode_packed(X[:16]), pm.encode_packed(X[:16])
            )
            np.testing.assert_array_equal(
                clone.predict(X[:16]), pm.predict(X[:16])
            )

    def test_publisher_model_untouched_by_to_shared(self, packed_setup):
        pm, _ = packed_setup
        before = pm.class_words.copy()
        with SharedModelArena(prefix="t_img2") as arena:
            pm.to_shared(arena)
            assert pm.owns_words  # stash/restore left the model intact
            np.testing.assert_array_equal(pm.class_words, before)

    def test_materialize_detaches_from_segment(self, packed_setup):
        pm, X = packed_setup
        with SharedModelArena(prefix="t_img3") as arena:
            spec = pm.to_shared(arena)
            clone = PackedModel.from_shared(spec, arena)
            owned = clone.materialize()
            assert owned is not clone
            assert owned.owns_words
            assert owned.shared_segment is None
        # the arena is gone; the materialized model must still work
        np.testing.assert_array_equal(owned.predict(X[:8]), pm.predict(X[:8]))

    def test_shared_kernel_tables_are_views(self, packed_setup):
        pm, X = packed_setup
        pm.encode_packed(X[:1])  # force-build the kernel before publishing
        with SharedModelArena(prefix="t_img4") as arena:
            spec = pm.to_shared(arena)
            clone = PackedModel.from_shared(spec, arena)
            clone.encode_packed(X[:1])
            kernel = clone.encoder._kernel
            assert kernel is not None
            assert kernel.tables.base is not None  # mapped, not rebuilt
