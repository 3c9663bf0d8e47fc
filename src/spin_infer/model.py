"""Model configuration, deterministic weight init, and the checkpoint file format.

Checkpoint file layout (``.spnm``):

    magic "SPNM" | u32 little-endian header length | JSON header | raw f32 data

The JSON header carries the model config and an ordered tensor table of
``{"name", "shape", "offset"}`` entries; offsets are byte positions inside
the data section, which is the concatenation of all tensors as
little-endian float32 in header order.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import schema
from .errors import ConfigError, DataError
from .prng import SplitMix64

MAGIC = b"SPNM"


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    n_heads: int
    d_model: int
    d_ffn: int
    vocab_size: int
    max_seq_len: int

    def __post_init__(self):
        for name in ("n_layers", "n_heads", "d_model", "d_ffn", "vocab_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"model.{name} must be >= 1, got {getattr(self, name)}")
        if self.max_seq_len < 2:
            raise ConfigError(f"model.max_seq_len must be >= 2, got {self.max_seq_len}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"model.d_model ({self.d_model}) not divisible by n_heads ({self.n_heads})"
            )

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TensorEntry:
    name: str
    shape: list[int]
    offset: int  # bytes into the data section


@dataclass
class CheckpointHeader:
    config: ModelConfig
    tensors: list[TensorEntry]


def tensor_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Ordered name -> shape table; defines both init order and file order."""
    d, f, v = config.d_model, config.d_ffn, config.vocab_size
    shapes: dict[str, tuple[int, ...]] = {"embedding": (v, d)}
    for i in range(config.n_layers):
        p = f"layers.{i}."
        shapes[p + "attn_norm"] = (d,)
        shapes[p + "wq"] = (d, d)
        shapes[p + "wk"] = (d, d)
        shapes[p + "wv"] = (d, d)
        shapes[p + "wo"] = (d, d)
        shapes[p + "ffn_norm"] = (d,)
        shapes[p + "w1"] = (d, f)
        shapes[p + "w2"] = (f, d)
    shapes["final_norm"] = (d,)
    shapes["output"] = (d, v)
    return shapes


class Checkpoint:
    """Immutable bundle of config + named float32 tensors.

    `data` is one flat buffer laid out as the file's data section: the
    tensors in table order, each starting where the previous one ends. Every
    tensor is a view of it. The buffer is marked read-only, and so is every
    view of it, so no in-place op can write to the weights.
    """

    def __init__(self, config: ModelConfig, data: np.ndarray):
        shapes = tensor_shapes(config)
        n = sum(math.prod(shape) for shape in shapes.values())
        if data.dtype != np.float32 or data.shape != (n,):
            raise DataError(f"checkpoint data is {data.dtype} {data.shape}, expected float32 ({n},) for its config")
        data.setflags(write=False)  # before the views are taken, which inherit it
        self.config = config
        self.data = data
        self.tensors: dict[str, np.ndarray] = {}
        self._start: dict[str, int] = {}  # each tensor's first float in `data`
        start = 0
        for name, shape in shapes.items():
            self._start[name] = start
            self.tensors[name] = t = data[start : start + math.prod(shape)].reshape(shape)
            start += t.size
            if not np.isfinite(t).all():
                raise DataError(f"tensor {name!r} contains non-finite values")

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def layer(self, i: int, name: str) -> np.ndarray:
        return self.tensors[f"layers.{i}.{name}"]

    def qkv(self, i: int) -> np.ndarray:
        """Layer i's wq, wk and wv stacked (3, d, d): a view of `data`, where
        the three are adjacent in table order."""
        d = self.config.d_model
        start = self._start[f"layers.{i}.wq"]
        return self.data[start : start + 3 * d * d].reshape(3, d, d)


def init_checkpoint(config: ModelConfig, seed: int) -> Checkpoint:
    """Deterministic random init: one splitmix64 stream consumed in table order.

    Projection/embedding weights are uniform in [-s, s] with s = 1/sqrt(d_model);
    norm gains start at exactly 1. Identical (config, seed) gives bit-identical
    tensors on any platform.
    """
    rng = SplitMix64(seed)
    s = 1.0 / math.sqrt(config.d_model)
    shapes = tensor_shapes(config)
    data = np.empty(sum(math.prod(shape) for shape in shapes.values()), dtype=np.float32)
    start = 0
    for name, shape in shapes.items():
        n = math.prod(shape)
        data[start : start + n] = 1.0 if name.endswith("norm") else (2.0 * rng.uniforms(n) - 1.0) * s
        start += n
    return Checkpoint(config, data)


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    table = [TensorEntry(name, list(t.shape), 4 * ckpt._start[name]) for name, t in ckpt.tensors.items()]
    header = json.dumps(asdict(CheckpointHeader(ckpt.config, table))).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(np.ascontiguousarray(ckpt.data, dtype="<f4").data)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint, validating its header against the file size first.

    The tensor data is read once into one float32 buffer, which becomes the
    checkpoint's `data`: no copy of the file's bytes is kept.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        pre = fh.read(8)
        if pre[:4] != MAGIC:
            raise DataError(f"{path}: not a SPNM checkpoint (bad magic)")
        if len(pre) < 8:
            raise DataError(f"{path}: truncated header")
        (hlen,) = struct.unpack("<I", pre[4:8])
        if 8 + hlen > size:  # checked before the read, which allocates hlen bytes up front
            raise DataError(f"{path}: truncated header (want {hlen} bytes)")
        try:
            text = fh.read(hlen).decode()
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: bad checkpoint header: {e}") from e
        header = schema.load(CheckpointHeader, text, str(path), DataError)
        data_len = size - 8 - hlen
        expected = tensor_shapes(header.config)
        if len(header.tensors) != len(expected):
            raise DataError(f"{path}: tensor table does not match config-derived layout")
        end = 0
        for entry, (name, shape) in zip(header.tensors, expected.items()):
            if entry.name != name:
                raise DataError(f"{path}: tensor table entry {entry.name!r} where {name!r} belongs")
            if tuple(entry.shape) != shape:
                raise DataError(f"{path}: tensor {name!r} shape {tuple(entry.shape)} != expected {shape}")
            if entry.offset != end:
                raise DataError(f"{path}: tensor {name!r} offset {entry.offset} is not contiguous")
            end = entry.offset + 4 * math.prod(shape)
            if end > data_len:
                raise DataError(f"{path}: tensor {name!r} runs past end of file")
        if end != data_len:
            raise DataError(f"{path}: {data_len - end} trailing bytes after tensor data")
        # a fresh array, not a view of the file bytes: those start at 8 + hlen,
        # which is float32-aligned only when hlen % 4 == 0
        flat = np.empty(end // 4, dtype="<f4")
        got = fh.readinto(flat)
        if got != end:
            raise DataError(f"{path}: read {got} of {end} tensor data bytes")
    return Checkpoint(header.config, flat)
