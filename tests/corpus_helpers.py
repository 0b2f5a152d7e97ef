"""Corpus comparison for tests: the library compares documents by identity."""

import numpy as np


def assert_same_corpus(got, want):
    """Same documents in the same order, field by field, and the same corpus metadata."""
    assert len(got.documents) == len(want.documents)
    for a, b in zip(got.documents, want.documents):
        assert a.id == b.id
        assert np.array_equal(a.image_feat, b.image_feat), a.id
        assert a.text_counts == b.text_counts, a.id
        assert a.timestamp == b.timestamp, a.id
        assert a.labels == b.labels, a.id
    assert got.vocabulary == want.vocabulary
    assert got.categories == want.categories
    assert got.time_axis == want.time_axis
    assert got.d_image == want.d_image
