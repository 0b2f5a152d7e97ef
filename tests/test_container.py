"""The TXNM and TXNT byte layouts, pinned against bytes assembled here, and the arrays that
every container read gives back.

Every value is set by hand and no array comes from a matrix product, so the
expected bytes do not depend on the platform's BLAS.
"""

import gc
import json
import struct
import tracemalloc

import numpy as np
import pytest

from tcmr import corpus as cp
from tcmr import temporal as tp
from tcmr.container import Container
from tcmr.corpus import TimeAxis
from tcmr.projection import ProjectionHalf, ProjectionModel, load_checkpoint, save_checkpoint


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
        tp.CategoryKDE(bandwidth=1.5, grid=np.array([0.0, 1.0, 2.0]), categories=["a", "b"],
                       curves=np.array([[1.0, 0.0, 0.125], [0.25, 1.0, 0.5]])),
        b"KDE\x00",
        {"bandwidth": 1.5, "grid_size": 3, "categories": ["a", "b"]},
        [[0.0, 1.0, 2.0], [1.0, 0.0, 0.125], [0.25, 1.0, 0.5]],
    ),
    "topic": (
        tp.TopicDensity(num_topics=2, vocabulary=["y", "x"],
                        phi=np.array([[0.75, 0.25], [0.5, 0.5]]),
                        slice_map=np.array([0, 1, 1]), time_axis=AXIS, floor=1e-6,
                        aggregate="geometric"),
        b"TOP\x00",
        {"num_topics": 2, "vocabulary": ["y", "x"], "floor": 1e-6,
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


@pytest.fixture()
def read_arrays(monkeypatch):
    """Every array that ``Container.arrays`` returns from here on, in order."""
    seen = []
    arrays = Container.arrays

    def recording(self, *args, **kwargs):
        out = arrays(self, *args, **kwargs)
        seen.extend(out)
        return out

    monkeypatch.setattr(Container, "arrays", recording)
    return seen


def assert_read_only_views(arrays):
    for arr in arrays:
        assert not arr.flags.writeable and arr.base is not None and arr.flags.aligned
        with pytest.raises(ValueError, match="read-only"):
            arr.reshape(-1)[:1] = 0


def test_arrays_read_are_read_only_views(tmp_path, read_arrays):
    """TXNM, TXNT and TXNI arrays are read-only, aligned views of the file's bytes, as the
    model or corpus built from them holds them, whatever the header's length."""
    path = tmp_path / "m.txnm"
    for size in range(8):  # every header length modulo 8
        model = ProjectionModel(image_net=hand_half(3, 0), text_net=hand_half(4, 50))
        save_checkpoint(path, model, config={"pad": "x" * size}, seed=0)
        loaded, _, _ = load_checkpoint(path)
        assert_read_only_views(loaded.params())
    assert len(read_arrays) == 8 * 8

    for kind, (written, *_) in sorted(TEMPORAL_LAYOUTS.items()):
        path = tmp_path / f"{kind}.txnt"
        tp.write_temporal_model(path, written)
        tp.read_temporal_model(path)
    assert len(read_arrays) == 64 + 4  # a KDE grid and curves, a topic phi and slice map

    records = [("a", np.zeros(2), {"x": 1, "y": 2}, 0, ["l"]),
               ("b", np.ones(2), {"y": 3}, 86400, ["l", "m"])]
    cp.save_corpus(cp.from_records(records), tmp_path / "bundle")
    corpus = cp.load_bundle(tmp_path / "bundle", cp.DEFAULT_TIME_UNIT)
    assert len(read_arrays) == 68 + 4  # epochs, indptr, indices and counts
    assert_read_only_views([corpus.image, *corpus.text])
    assert_read_only_views(read_arrays)


def test_checkpoint_load_peaks_under_one_and_a_half_file_sizes(tmp_path):
    """The loaded tensors share the file's bytes, so a load holds about one file size."""
    path = tmp_path / "m.txnm"
    save_checkpoint(path, ProjectionModel.initialize(256, 2000, 512, 64, seed=0), config={},
                    seed=0)
    size = path.stat().st_size
    gc.collect()
    tracemalloc.start()
    try:
        model, _, _ = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.text_net.W1.shape == (512, 2000)
    assert peak < 1.5 * size
