"""Modality projection networks and their optimizer.

Each modality is mapped into the shared subspace by a two-layer tanh
network whose output is l2-normalized, so dot products between projections
are cosine similarities. Normalization is part of the network: gradients
flow through the Jacobian (I - y_hat y_hat^T) / ||y||.

All arithmetic is float64; gradients are exact and checked against finite
differences in the test suite. ``TENSOR_NAMES`` is the one order of the
eight parameter tensors: ``params()``, the gradients of ``backward`` and
``objective.total_loss``, the optimizer's velocity and the TXNM checkpoint
(a file in the layout of ``container``) all follow it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .container import Container, write_container

CHECKPOINT_MAGIC = b"TXNM"
CHECKPOINT_VERSION = 1
DEGENERATE_NORM = 1e-12

TENSOR_NAMES = ("image.W1", "image.b1", "image.W2", "image.b2",
                "text.W1", "text.b1", "text.W2", "text.b2")


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

    def params(self) -> list[np.ndarray]:
        return [self.W1, self.b1, self.W2, self.b2]

    def forward(self, x):
        """Project a (n, d_in) batch to unit rows; a 1-d input is one row.

        Returns (projections, cache); the cache holds the pre-normalization
        activations needed by backward().
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.d_in:
            raise ValueError(f"input has dimension {x.shape[1]}, expected {self.d_in}")
        # bias and tanh in place: one (n, width) array per layer, the same operations and bits
        h = x @ self.W1.T
        h += self.b1
        np.tanh(h, out=h)
        y = h @ self.W2.T
        y += self.b2
        np.tanh(y, out=y)
        norms = np.linalg.norm(y, axis=1, keepdims=True)
        if (norms < DEGENERATE_NORM).any():
            row = int(np.nonzero(norms[:, 0] < DEGENERATE_NORM)[0][0])
            raise DegenerateProjectionError(f"degenerate projection for batch row {row}", row)
        y_hat = y / norms
        return y_hat, (x, h, y, norms, y_hat)

    def backward(self, cache, upstream):
        """Exact parameter gradients for a cached forward pass.

        upstream is dL/d(y_hat), shape (n, d_out). Returns [dW1, db1, dW2,
        db2], in ``params()`` order.
        """
        x, h, y, norms, y_hat = cache
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
        return [dW1, db1, dW2, db2]


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
            "d_subspace": self.image_net.W2.shape[0],
        }

    @classmethod
    def from_params(cls, tensors):
        """The model whose ``params()`` are ``tensors``."""
        return cls(image_net=ProjectionHalf(*tensors[:4]), text_net=ProjectionHalf(*tensors[4:]))

    def params(self) -> list[np.ndarray]:
        """The eight tensors in ``TENSOR_NAMES`` order."""
        return self.image_net.params() + self.text_net.params()

    def copy(self) -> "ProjectionModel":
        return ProjectionModel.from_params([p.copy() for p in self.params()])


@dataclass
class SgdMomentum:
    """SGD with momentum and a 1/(1 + decay*t) learning-rate schedule.

    Update: v <- momentum*v - (eta/s)*g; theta <- theta + v; then eta is
    multiplied by 1/(1 + decay*step_count).
    """

    eta: float
    momentum: float
    decay: float
    step_count: int = 0
    velocity: list[np.ndarray] = field(default_factory=list)

    def step(self, model: ProjectionModel, grads, batch_size: int) -> None:
        """One update; ``grads`` holds one gradient per tensor of ``model.params()``."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        params = model.params()
        if not self.velocity:
            self.velocity = [np.zeros_like(p) for p in params]
        for name, g in zip(TENSOR_NAMES, grads, strict=True):
            if not np.isfinite(g).all():
                raise NonFiniteGradientError(f"non-finite gradient in {name}")
        scale = self.eta / batch_size
        for p, v, g in zip(params, self.velocity, grads, strict=True):
            v *= self.momentum
            v -= scale * g
            p += v
        self.step_count += 1
        self.eta *= 1.0 / (1.0 + self.decay * self.step_count)


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(path, model: ProjectionModel, config: dict | None = None,
                    seed: int | None = None) -> None:
    """TXNM container (see ``container``): field = u32 version, header keys
    ``dims``, ``config``, ``seed``.

    The tensors follow ``TENSOR_NAMES``.
    """
    header = {"dims": model.dims, "config": config or {}, "seed": seed}
    write_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION.to_bytes(4, "little"),
                    header, model.params())


def load_checkpoint(path):
    """Returns (model, config dict, seed)."""
    box = Container(path, CHECKPOINT_MAGIC, ValueError)
    version = int.from_bytes(box.field, "little")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    try:
        dims = box.header["dims"]
        sizes = {key: dims[key] for key in ("d_image", "d_text", "hidden", "d_subspace")}
        config, seed = box.header["config"], box.header["seed"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed checkpoint header ({exc!r})") from None
    for key, size in sizes.items():
        if type(size) is not int or size < 1:  # a bool is no int here
            raise ValueError(f"{path}: dims[{key!r}], an array shape size, must be an int >= 1,"
                             f" got {size!r}")
    h, d = sizes["hidden"], sizes["d_subspace"]
    shapes = [shape for d_in in (sizes["d_image"], sizes["d_text"])
              for shape in ((h, d_in), (h,), (d, h), (d,))]
    return ProjectionModel.from_params(box.arrays(shapes)), config, seed
