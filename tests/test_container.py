"""The TXNM and TXNT byte layouts, pinned against bytes assembled here.

Every value is set by hand and no array comes from a matrix product, so the
expected bytes do not depend on the platform's BLAS.
"""

import json
import struct

import numpy as np
import pytest

from tcmr import temporal as tp
from tcmr.corpus import TimeAxis
from tcmr.projection import ProjectionHalf, ProjectionModel, save_checkpoint


def container_bytes(magic, field, header, arrays):
    """Magic, field, u32 header length, sorted-key JSON header, <f8 arrays."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return (magic + field + struct.pack("<I", len(blob)) + blob
            + b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays))


def hand_half(d_in, offset):
    """Two hidden units and two outputs; every value distinct and exact in binary."""
    values = (np.arange(2 * d_in + 8) + offset) / 8.0 - 3.0
    w1, b1, w2, b2 = np.split(values, [2 * d_in, 2 * d_in + 2, 2 * d_in + 6])
    return ProjectionHalf(w1.reshape(2, d_in), b1, w2.reshape(2, 2), b2)


def test_checkpoint_layout(tmp_path):
    image, text = hand_half(3, 0), hand_half(4, 50)
    path = tmp_path / "m.txnm"
    config = {"eta": 0.005, "lam": 1.5}
    save_checkpoint(path, ProjectionModel(image_net=image, text_net=text), config=config, seed=7)
    header = {"dims": {"d_image": 3, "d_text": 4, "hidden": 2, "d_subspace": 2},
              "config": config, "seed": 7}
    tensors = [p for half in (image, text) for p in (half.W1, half.b1, half.W2, half.b2)]
    assert path.read_bytes() == container_bytes(b"TXNM", struct.pack("<I", 1), header, tensors)


AXIS = TimeAxis(unit=86400.0, origin=1_500_000_000, num_slices=3)
TEMPORAL_LAYOUTS = {
    "recency": (tp.RecencyModel(h_rec=0.3), b"REC\x00", {"h_rec": 0.3}, []),
    "category": (
        tp.CategoryKDE(bandwidth=1.5, grid=np.array([0.0, 1.0, 2.0]),
                       curves={"b": np.array([0.25, 1.0, 0.5]), "a": np.array([1.0, 0.0, 0.125])}),
        b"KDE\x00",
        {"bandwidth": 1.5, "grid_size": 3, "categories": ["a", "b"]},
        [[0.0, 1.0, 2.0], [1.0, 0.0, 0.125], [0.25, 1.0, 0.5]],
    ),
    "topic": (
        tp.TopicDensity(num_topics=2, vocabulary=["y", "x"],
                        phi=np.array([[0.75, 0.25], [0.5, 0.5]]),
                        slice_map=np.array([0, 1, 1]), time_axis=AXIS),
        b"TOP\x00",
        {"num_topics": 2, "vocabulary": ["y", "x"], "floor": tp.DEFAULT_TOPIC_FLOOR,
         "aggregate": "geometric", "num_effective_slices": 2,
         "time_axis": {"unit": 86400.0, "origin": 1_500_000_000, "num_slices": 3}},
        [[[0.75, 0.25], [0.5, 0.5]], [0.0, 1.0, 1.0]],
    ),
}


@pytest.mark.parametrize("kind", sorted(TEMPORAL_LAYOUTS))
def test_temporal_layout(tmp_path, kind):
    model, tag, header, arrays = TEMPORAL_LAYOUTS[kind]
    path = tmp_path / f"{kind}.txnt"
    tp.write_temporal_model(path, model)
    want = container_bytes(b"TXNT", tag, dict(header, version=2), arrays)
    assert path.read_bytes() == want
