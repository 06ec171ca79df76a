"""Named trainable parameters, initializers, Adam, and the checkpoint format."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import ModelConfig, canonical_json_line
from .errors import DataError, UsageError
from .tensor import Tensor

CHECKPOINT_MAGIC = "stmtmem-checkpoint"
CHECKPOINT_VERSION = 1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class ParameterSet:
    """Ordered map name -> trainable Tensor; iteration is lexicographic."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise UsageError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self) -> list[tuple[str, Tensor]]:
        return [(name, self._params[name]) for name in self.names()]

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def copy(self) -> "ParameterSet":
        clone = ParameterSet()
        for name in self.names():
            clone.add(name, self._params[name].data.copy())
        return clone

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(t.data)) for t in self._params.values())


def uniform_init(rng: np.random.Generator, shape, low: float, high: float) -> np.ndarray:
    return rng.uniform(low, high, size=shape)


def glorot_init(rng: np.random.Generator, shape) -> np.ndarray:
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


@dataclass
class AdamState:
    """Adam moment buffers bound to one ParameterSet."""

    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def bind(cls, params: ParameterSet) -> "AdamState":
        state = cls()
        for name, tensor in params.items():
            state.m[name] = np.zeros_like(tensor.data)
            state.v[name] = np.zeros_like(tensor.data)
        return state


def adam_step(params: ParameterSet, state: AdamState, lr: float) -> None:
    """Bias-corrected Adam update with step size `lr` in place (moment decays
    ADAM_BETA1 and ADAM_BETA2, ADAM_EPSILON in the denominator); clears
    gradients afterwards."""
    if set(state.m) != set(params.names()):
        raise UsageError("adam state is not bound to this parameter set")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    for name, p in params.items():
        g = p.grad
        if g is None:
            raise UsageError(f"adam_step: parameter {name!r} has no gradient")
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPSILON)
    params.zero_grads()


def save_checkpoint(path: str, config: ModelConfig, params: ParameterSet) -> None:
    """Write a checkpoint: text header, then raw little-endian f64 data.

    Layout (header lines are UTF-8):

        stmtmem-checkpoint 1
        <model config as one-line canonical JSON>
        <N, the number of parameters>
        name<TAB>dims comma-separated<TAB>byte offset into the data section
        ... (N manifest lines, sorted by name)
        data
        <raw f64 little-endian values, concatenated in manifest order>

    The round trip is bit-exact.
    """
    lines = [f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}", canonical_json_line(config.to_dict())]
    manifest = []
    offset = 0
    for name, tensor in params.items():
        dims = ",".join(str(d) for d in tensor.shape)
        manifest.append(f"{name}\t{dims}\t{offset}")
        offset += tensor.data.nbytes
    lines.append(str(len(manifest)))
    lines.extend(manifest)
    lines.append("data")
    try:
        with open(path, "wb") as fh:
            fh.write(("\n".join(lines) + "\n").encode("utf-8"))
            for _, tensor in params.items():
                fh.write(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())
    except OSError as exc:
        raise DataError(f"cannot write checkpoint to {path}: {exc}") from exc


def load_checkpoint(path: str) -> tuple[ModelConfig, ParameterSet]:
    """Read a checkpoint written by save_checkpoint. The manifest must name
    exactly the parameters the stored config builds, with their shapes, laid
    out back to back, and the data section must end with the last one."""
    from .model import _param_specs   # model imports this module

    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    form = f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}"
    part = "header"            # the part read, named by the errors below
    try:
        head, found, rest = blob.partition(b"\ndata\n")
        lines = head.decode("utf-8").split("\n")
        if lines[0] != form:
            raise ValueError(f"its format line is {lines[0][:40]!r}, not {form!r}")
        part = "config line"
        config = ModelConfig.from_dict(json.loads(lines[1]))
        part = "manifest count"
        count = int(lines[2])
        part = "manifest"
        if not found:
            raise ValueError("no 'data' line follows it")
        if len(lines) != 3 + count:
            raise ValueError(f"it has {len(lines) - 3} lines, its count says {count}")
        expected = {name: shape for name, shape, _ in _param_specs(config)}
        params = ParameterSet()
        end = 0
        for line in lines[3:]:
            name, dims, offset = line.split("\t")
            shape = tuple(int(d) for d in dims.split(",")) if dims else ()
            if name not in expected:
                raise DataError(f"checkpoint {path}: unexpected parameter {name!r}")
            if shape != expected[name]:
                raise DataError(f"checkpoint {path}: parameter {name!r} has shape {shape}, "
                                f"the stored config needs {expected[name]}")
            n_items = math.prod(shape)
            if int(offset) != end or end + 8 * n_items > len(rest):
                raise DataError(f"checkpoint {path}: the data section holds {len(rest)} bytes; "
                                f"parameter {name!r} at offset {offset} needs {end}..{end + 8 * n_items}")
            arr = np.frombuffer(rest, dtype="<f8", count=n_items, offset=end)
            params.add(name, arr.reshape(shape).copy())
            end += 8 * n_items
        missing = sorted(set(expected) - set(params.names()))
        if missing:
            raise DataError(f"checkpoint {path}: missing parameter {missing[0]!r}")
        if len(rest) != end:
            raise DataError(f"checkpoint {path}: {len(rest) - end} bytes after the last parameter")
    except DataError:
        raise
    except IndexError:
        raise DataError(f"corrupt checkpoint {path}: the header ends before its {part}") from None
    except Exception as exc:
        raise DataError(f"corrupt checkpoint {path}: {part}: {exc}") from exc
    return config, params
