"""Model container: architecture config, canonical weight schema, binary file I/O.

File layout: bytes 0-7 magic ``ASCMODL1``, bytes 8-11 header length
(u32 little-endian), then a UTF-8 JSON header
``{version, config{...}, tensors{name: {shape, dtype, offset}}}``,
then the payload of raw little-endian float32 values. Tensors sit at
canonical offsets: in ``tensor_shapes`` order, each at the next 8-byte
boundary (relative to the payload start) after the previous one. The loader
refuses any other layout.
"""

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import FormatError, ValidationError, is_int, require_int, require_type, shown
from .fileio import atomic_write, parse_json_object, require_keys

MAGIC = b"ASCMODL1"
FORMAT_VERSION = 1
NORM_MODES = ("standard", "none")
_SCAN_CHUNK = 1 << 16  # float32 values per finiteness check in load_model


@dataclass
class ModelConfig:
    """Hyperparameters of an encoder stack plus the provenance of its layers.

    ``layer_ids`` holds the original 1-based encoder-layer index of each
    surviving layer so pruned models can report removals in the numbering
    of the model they came from. Unpruned models carry ``(1, ..., L)``.
    """

    vocab_size: int
    num_layers: int
    hidden_dim: int
    num_heads: int
    ffn_dim: int
    max_seq_len: int
    norm_mode: str = "standard"
    layer_ids: tuple = None

    def __post_init__(self):
        if self.layer_ids is None:
            # a num_layers that is not an int is left for validate() to refuse
            count = self.num_layers if is_int(self.num_layers) else 0
            self.layer_ids = tuple(range(1, count + 1))
        elif not isinstance(self.layer_ids, (tuple, list)) or not all(map(is_int, self.layer_ids)):
            raise ValidationError(f"config: layer_ids must be integers, got {shown(self.layer_ids)}")
        else:
            self.layer_ids = tuple(self.layer_ids)

    def validate(self):
        """The one rule for a config, whether built in memory or read from a file."""
        for name in ("vocab_size", "hidden_dim", "num_heads", "ffn_dim", "max_seq_len"):
            require_int(f"config: {name}", getattr(self, name), 1)
        # num_layers may legitimately reach 0: pruning every encoder layer
        # leaves an embedding-only model.
        require_int("config: num_layers", self.num_layers, 0)
        if self.hidden_dim % self.num_heads != 0:
            raise ValidationError(
                f"config: d mod h != 0 (hidden_dim={self.hidden_dim}, num_heads={self.num_heads})"
            )
        if self.norm_mode not in NORM_MODES:
            raise ValidationError(f"config: unknown norm_mode {shown(self.norm_mode)}")
        if len(self.layer_ids) != self.num_layers:
            raise ValidationError(
                f"config: layer_ids has {len(self.layer_ids)} entries for {self.num_layers} layers"
            )
        if any(i < 1 for i in self.layer_ids):
            raise ValidationError(f"config: layer_ids must be >= 1, got {self.layer_ids}")
        if any(a >= b for a, b in zip(self.layer_ids, self.layer_ids[1:])):
            raise ValidationError(f"config: layer_ids not strictly increasing: {self.layer_ids}")

    def to_dict(self):
        data = asdict(self)
        data["layer_ids"] = list(self.layer_ids)
        return data

    @classmethod
    def from_dict(cls, data):
        """The config a JSON object describes; value rules are left to validate()."""
        require_keys(data, [f.name for f in fields(cls)], "config")
        # a null here would read as the default 1..L
        if not isinstance(data["layer_ids"], list):
            raise FormatError(f"config: layer_ids must be a list, got {data['layer_ids']!r}")
        return cls(**data)


@dataclass
class ModelWeights:
    """Named weight tensors keyed by the canonical naming scheme."""

    tensors: dict = field(default_factory=dict)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]


def layer_shapes(config: ModelConfig) -> dict:
    """Suffix -> shape of one encoder layer's tensors, in schema order; layer
    k's tensors are named `layer.{k}.{suffix}`."""
    d, f = config.hidden_dim, config.ffn_dim
    shapes = {f"attn.{proj}.{kind}": (d, d) if kind == "w" else (d,)
              for proj in "qkvo" for kind in "wb"}
    shapes.update({"ffn.w1": (d, f), "ffn.b1": (f,), "ffn.w2": (f, d), "ffn.b2": (d,),
                   "ln1.g": (d,), "ln1.b": (d,), "ln2.g": (d,), "ln2.b": (d,)})
    return shapes


def tensor_shapes(config: ModelConfig) -> dict:
    """Canonical tensor name -> shape map for a given config.

    Layer keys count surviving layers from 0, so surgery renumbers
    deterministically. This map is the single source of truth for
    validation, serialization, and synthesis.
    """
    d = config.hidden_dim
    shapes = {"embed.token": (config.vocab_size, d), "embed.pos": (config.max_seq_len, d)}
    per_layer = layer_shapes(config)
    for k in range(config.num_layers):
        shapes.update((f"layer.{k}.{suffix}", shape) for suffix, shape in per_layer.items())
    return shapes


def check_model(config: ModelConfig, weights: ModelWeights):
    """The structural rule: a valid config and exactly the schema's tensors,
    each a float32 array of its schema shape. It reads no tensor value."""
    require_type("config", config, ModelConfig)
    require_type("weights", weights, ModelWeights)
    require_type("weights: tensors", weights.tensors, dict)
    config.validate()
    expected = tensor_shapes(config)
    names = set(weights.tensors)
    missing = sorted(set(expected) - names)
    if missing:
        raise ValidationError(f"weights: missing tensors {missing}")
    extra = sorted(names - set(expected))
    if extra:
        raise ValidationError(f"weights: unexpected tensors {extra}")
    for name, shape in expected.items():
        tensor = weights.tensors[name]
        if not isinstance(tensor, np.ndarray):
            raise ValidationError(
                f"weights: tensor {name!r} is not an array, got {type(tensor).__name__}")
        if tuple(tensor.shape) != shape:
            raise ValidationError(
                f"weights: tensor {name!r} has shape {tuple(tensor.shape)}, expected {shape}"
            )
        if tensor.dtype != np.float32:
            raise ValidationError(f"weights: tensor {name!r} has dtype {tensor.dtype}, expected float32")


def validate_weights(config: ModelConfig, weights: ModelWeights):
    """`check_model`, then a scan that every tensor value is finite."""
    check_model(config, weights)
    for name, tensor in weights.tensors.items():
        if not np.isfinite(tensor).all():
            raise ValidationError(f"weights: tensor {name!r} contains non-finite values")


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def _payload_layout(config: ModelConfig):
    """Canonical header entry of each tensor plus the total payload size.

    Tensors follow `tensor_shapes` order, each at the next 8-byte boundary.
    """
    layout = {}
    end = 0
    for name, shape in tensor_shapes(config).items():
        offset = _align8(end)
        layout[name] = {"shape": list(shape), "dtype": "f32", "offset": offset}
        end = offset + 4 * math.prod(shape)
    return layout, end


def save_model(config: ModelConfig, weights: ModelWeights, path):
    """Write the container file; rejects invalid models before touching disk."""
    validate_weights(config, weights)
    layout, _ = _payload_layout(config)
    header = {"version": FORMAT_VERSION, "config": config.to_dict(), "tensors": layout}
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with atomic_write(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<I", len(header_bytes)))
        handle.write(header_bytes)
        cursor = 0
        for name, entry in layout.items():
            handle.write(b"\0" * (entry["offset"] - cursor))
            data = np.ascontiguousarray(weights.tensors[name], dtype="<f4")
            handle.write(data)
            cursor = entry["offset"] + data.nbytes


def load_model(path):
    """Read and fully validate a container file.

    The header is read and checked first, and a payload size beyond the file
    is refused before anything is allocated. The payload is then read once
    into one buffer, and each tensor is a writable float32 view into it.
    `check_model` runs on the result, then one finiteness scan of the whole
    payload. Every malformed input raises FormatError or ValidationError,
    and an OSError keeps its subclass and names `path`; a partially
    constructed model is never returned.
    """
    try:
        with open(path, "rb") as handle:
            config, layout, payload = _read_container(handle, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror or str(exc), os.fspath(path)) from exc
    tensors = {}
    for name, entry in layout.items():
        offset = entry["offset"]
        tensors[name] = (
            payload[offset: offset + 4 * math.prod(entry["shape"])]
            .view("<f4")
            .reshape(entry["shape"])
        )
    weights = ModelWeights(tensors)
    check_model(config, weights)
    if not _all_finite(payload.view("<f4")):
        # the scan also read the padding between tensors, which no tensor
        # holds; the per-tensor scan names the first bad tensor, if any
        try:
            validate_weights(config, weights)
        except ValidationError as exc:
            raise FormatError(f"{path}: {exc}") from exc
    return config, weights


def _all_finite(values) -> bool:
    """Whether every value of a 1-d float array is finite, scanned in chunks
    so that no full-size temporary is allocated."""
    return all(np.isfinite(values[i: i + _SCAN_CHUNK]).all()
               for i in range(0, values.size, _SCAN_CHUNK))


def _read_container(handle, path):
    """Check the header of an open container, then read its payload.

    Returns the config, the canonical layout and the payload as one uint8
    array; offsets in the layout are 8-aligned, so every tensor view into
    the array is aligned.
    """
    file_size = os.fstat(handle.fileno()).st_size
    header_start = len(MAGIC) + 4
    prefix = handle.read(header_start)
    if len(prefix) < header_start:
        raise FormatError(f"{path}: file too short for magic and header length")
    if prefix[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: bad magic {prefix[:len(MAGIC)]!r}")
    (header_len,) = struct.unpack("<I", prefix[len(MAGIC):])
    # never read (or buffer) more than the file holds, whatever the prefix claims
    header_bytes = handle.read(header_len) if header_start + header_len <= file_size else b""
    if header_len == 0 or len(header_bytes) < header_len:
        raise FormatError(f"{path}: truncated header (claims {header_len} bytes)")
    header = parse_json_object(header_bytes, path, FORMAT_VERSION, "header")
    require_keys(header, ["version", "config", "tensors"], f"{path}: header")

    try:
        config = ModelConfig.from_dict(header["config"])
        config.validate()
    except (FormatError, ValidationError) as exc:
        raise FormatError(f"{path}: {exc}") from exc

    layout, payload_len = _payload_layout(config)
    described = require_keys(header["tensors"], layout, f"{path}: tensors")

    for name, expected in layout.items():
        entry = described[name]
        # == alone would accept False for 0 and 8.0 for 8
        if entry != expected or any(type(n) is not int for n in [entry["offset"], *entry["shape"]]):
            raise FormatError(
                f"{path}: tensor {name!r} entry {entry!r} is not the canonical {expected!r}"
            )

    available = file_size - header_start - header_len
    if available < payload_len:
        raise FormatError(
            f"{path}: truncated payload ({available} bytes, header claims {payload_len})"
        )
    if available > payload_len:
        raise FormatError(
            f"{path}: payload length mismatch ({available} bytes, expected {payload_len})"
        )
    payload = np.empty(payload_len, dtype=np.uint8)
    got = handle.readinto(payload)
    if got < payload_len:
        raise FormatError(
            f"{path}: truncated payload ({got} bytes, header claims {payload_len})"
        )
    return config, layout, payload
