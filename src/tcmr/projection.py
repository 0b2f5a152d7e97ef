"""Modality projection networks and their optimizer.

Each modality is mapped into the shared subspace by a two-layer tanh
network whose output is l2-normalized, so dot products between projections
are cosine similarities. Normalization is part of the network: gradients
flow through the Jacobian (I - y_hat y_hat^T) / ||y||.

All arithmetic is float64; gradients are exact and checked against finite
differences in the test suite.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

CHECKPOINT_MAGIC = b"TXNM"
CHECKPOINT_VERSION = 1
DEGENERATE_NORM = 1e-12

# Fixed parameter order used by the optimizer and the checkpoint format.
PARAM_KEYS = ("W1", "b1", "W2", "b2")
HALF_KEYS = ("image", "text")


class DegenerateProjectionError(ArithmeticError):
    """Pre-normalization output collapsed to (near) zero norm at input row ``row``."""

    def __init__(self, message, row):
        super().__init__(message)
        self.row = row


class NonFiniteGradientError(ArithmeticError):
    """A gradient tensor contains NaN or infinity; the step was aborted."""


def _glorot_uniform(rng, fan_out, fan_in):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


class ProjectionHalf:
    """One modality's network: y = tanh(W2 tanh(W1 x + b1) + b2), normalized."""

    def __init__(self, W1, b1, W2, b2):
        self.W1 = np.asarray(W1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.W2 = np.asarray(W2, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)

    @classmethod
    def initialize(cls, d_in, hidden, d_out, rng):
        return cls(
            W1=_glorot_uniform(rng, hidden, d_in),
            b1=np.zeros(hidden),
            W2=_glorot_uniform(rng, d_out, hidden),
            b2=np.zeros(d_out),
        )

    @property
    def d_in(self):
        return self.W1.shape[1]

    @property
    def d_out(self):
        return self.W2.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        return {"W1": self.W1, "b1": self.b1, "W2": self.W2, "b2": self.b2}

    def forward(self, x):
        """Project a (n, d_in) batch (or single vector) to unit rows.

        Returns (projections, cache); the cache holds the pre-normalization
        activations needed by backward().
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.d_in:
            raise ValueError(f"input has dimension {x.shape[1]}, expected {self.d_in}")
        h = np.tanh(x @ self.W1.T + self.b1)
        y = np.tanh(h @ self.W2.T + self.b2)
        norms = np.linalg.norm(y, axis=1, keepdims=True)
        if (norms < DEGENERATE_NORM).any():
            row = int(np.nonzero(norms[:, 0] < DEGENERATE_NORM)[0][0])
            raise DegenerateProjectionError(f"degenerate projection for batch row {row}", row)
        y_hat = y / norms
        cache = {"x": x, "h": h, "y": y, "norms": norms, "y_hat": y_hat}
        return y_hat, cache

    def project(self, x):
        """Forward pass without keeping activations; returns 1-d for 1-d input."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        y_hat, _ = self.forward(x)
        return y_hat[0] if single else y_hat

    def backward(self, cache, upstream):
        """Exact gradients for a cached forward pass.

        upstream is dL/d(y_hat), shape (n, d_out). Returns (param gradient
        dict, dL/dx).
        """
        if cache is None:
            raise ValueError("backward() needs the cache from forward()")
        x, h, y, norms, y_hat = (
            cache["x"],
            cache["h"],
            cache["y"],
            cache["norms"],
            cache["y_hat"],
        )
        g = np.atleast_2d(np.asarray(upstream, dtype=np.float64))
        # through normalization: (g - (g . y_hat) y_hat) / ||y||
        dy = (g - (g * y_hat).sum(axis=1, keepdims=True) * y_hat) / norms
        da2 = dy * (1.0 - y * y)
        dW2 = da2.T @ h
        db2 = da2.sum(axis=0)
        dh = da2 @ self.W2
        da1 = dh * (1.0 - h * h)
        dW1 = da1.T @ x
        db1 = da1.sum(axis=0)
        dx = da1 @ self.W1
        return {"W1": dW1, "b1": db1, "W2": dW2, "b2": db2}, dx


@dataclass
class ProjectionModel:
    """The pair of modality networks sharing one output space."""

    image_net: ProjectionHalf
    text_net: ProjectionHalf

    @classmethod
    def initialize(cls, d_image, d_text, hidden, d_subspace, seed):
        """Seeded Glorot-uniform init; image network drawn first, then text."""
        rng = np.random.default_rng(seed)
        return cls(
            image_net=ProjectionHalf.initialize(d_image, hidden, d_subspace, rng),
            text_net=ProjectionHalf.initialize(d_text, hidden, d_subspace, rng),
        )

    @property
    def dims(self) -> dict[str, int]:
        return {
            "d_image": self.image_net.d_in,
            "d_text": self.text_net.d_in,
            "hidden": self.image_net.W1.shape[0],
            "d_subspace": self.image_net.d_out,
        }

    def halves(self) -> dict[str, ProjectionHalf]:
        return {"image": self.image_net, "text": self.text_net}

    def project_images(self, x):
        return self.image_net.project(x)

    def project_texts(self, x):
        return self.text_net.project(x)

    def copy(self) -> "ProjectionModel":
        return ProjectionModel(
            image_net=ProjectionHalf(*(p.copy() for p in (
                self.image_net.W1, self.image_net.b1, self.image_net.W2, self.image_net.b2))),
            text_net=ProjectionHalf(*(p.copy() for p in (
                self.text_net.W1, self.text_net.b1, self.text_net.W2, self.text_net.b2))),
        )


@dataclass
class SgdMomentum:
    """SGD with momentum and a 1/(1 + decay*t) learning-rate schedule.

    Update: v <- momentum*v - (eta/s)*g; theta <- theta + v; then eta is
    multiplied by 1/(1 + decay*step_count).
    """

    eta: float
    momentum: float = 0.9
    decay: float = 0.0
    step_count: int = 0
    velocity: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)

    def step(self, model: ProjectionModel, grads, batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        halves = model.halves()
        if not self.velocity:
            self.velocity = {
                hk: {pk: np.zeros_like(p) for pk, p in halves[hk].params().items()}
                for hk in HALF_KEYS
            }
        for hk in HALF_KEYS:
            for pk in PARAM_KEYS:
                g = grads[hk][pk]
                if not np.isfinite(g).all():
                    raise NonFiniteGradientError(f"non-finite gradient in {hk}.{pk}")
        scale = self.eta / batch_size
        for hk in HALF_KEYS:
            params = halves[hk].params()
            for pk in PARAM_KEYS:
                v = self.velocity[hk][pk]
                v *= self.momentum
                v -= scale * grads[hk][pk]
                params[pk] += v
        self.step_count += 1
        self.eta *= 1.0 / (1.0 + self.decay * self.step_count)


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(path, model: ProjectionModel, config: dict | None = None,
                    seed: int | None = None) -> None:
    """Binary checkpoint: magic, version, JSON header, float64 tensors.

    Tensor order is image W1, b1, W2, b2 then text W1, b1, W2, b2,
    little-endian row-major.
    """
    header = {"dims": model.dims, "config": config or {}, "seed": seed}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        for hk in HALF_KEYS:
            for pk in PARAM_KEYS:
                fh.write(model.halves()[hk].params()[pk].astype("<f8").tobytes())


def load_checkpoint(path):
    """Returns (model, config dict, seed)."""
    with open(path, "rb") as fh:
        head = fh.read(12)
        if len(head) < 12:
            raise ValueError(f"{path}: truncated checkpoint header")
        magic, version, hlen = struct.unpack("<4sII", head)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: bad checkpoint magic {magic!r}")
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        header = json.loads(fh.read(hlen).decode("utf-8"))
        try:
            dims = header["dims"]
            shapes = {
                "image": _half_shapes(dims["d_image"], dims["hidden"], dims["d_subspace"]),
                "text": _half_shapes(dims["d_text"], dims["hidden"], dims["d_subspace"]),
            }
            config, seed = header["config"], header["seed"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{path}: malformed checkpoint header ({exc!r})") from None
        halves = {}
        for hk in HALF_KEYS:
            tensors = []
            for pk in PARAM_KEYS:
                shape = shapes[hk][pk]
                n = int(np.prod(shape))
                buf = fh.read(n * 8)
                if len(buf) != n * 8:
                    raise ValueError(f"{path}: truncated checkpoint tensor {hk}.{pk}")
                tensors.append(np.frombuffer(buf, dtype="<f8").reshape(shape).copy())
            halves[hk] = ProjectionHalf(*tensors)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last checkpoint tensor")
    model = ProjectionModel(image_net=halves["image"], text_net=halves["text"])
    return model, config, seed


def _half_shapes(d_in, hidden, d_out):
    return {
        "W1": (hidden, d_in),
        "b1": (hidden,),
        "W2": (d_out, hidden),
        "b2": (d_out,),
    }
