"""Case-file parsing and on-disk containers.

Two case inputs are supported: the native ``.case.json`` schema and a small
MATPOWER-style subset (``mpc.baseMVA``, ``mpc.bus``, ``mpc.branch`` matrices).
Datasets and checkpoints travel in one versioned binary container:

* a 20-byte little-endian header: magic ``UGCN``, u32 schema version,
  u64 body length, CRC32 of the body;
* the body: u64 length of a JSON head, the head, then one float64 blob.

The head is the payload encoded canonically (sorted keys, no spaces), except
that every :class:`F64Block` is replaced by a reference
``{"$f64": [offset, count]}`` into the blob, so tensors are stored as raw
little-endian float64 and reload bit exact (-0.0, NaN payloads and inf
included).  Everything else stays in the head, plain float lists included:
their JSON text is exact for finite values, +-0.0 and +-inf, and keeps one
NaN.  Tuples come back as lists.  The ``.ugcn.json`` / ``.ckpt.json``
suffixes are historical: the suffix does not pick the format.  Files of
schema version 1 (JSON text, or the earlier frame around JSON text) are
refused.  Writes go to ``<path>.tmp`` and are renamed over ``path``, so a
failed write leaves the previous file intact.  Complex tensors are stored as
separate re/im blocks.

`encode_array` makes the blocks, `save_container` writes their arrays to the
blob without a pass over the floats, `load_container` returns blocks over the
bytes it read, and `decode_array` copies from them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import re
import struct
import zlib
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import (
    CorruptFile,
    DanglingBranch,
    ParseError,
    SchemaVersionMismatch,
    UgcnError,
)
from .grid import DISTRIBUTION, Branch, GridGraph

SCHEMA_VERSION = 2
MAGIC = b"UGCN"
_HEADER = struct.Struct("<4sIQI")   # magic, version, body length, CRC32 of the body
_U64 = struct.Struct("<Q")
_F64_REF = "$f64"                   # head key of a reference into the float64 blob

BUILTIN_CASES = ("ieee33", "ieee69", "ieee30", "ieee39")

_CASE_KEYS = {"format", "version", "name", "base_mva", "kind", "root", "buses", "branches"}
_BUS_KEYS = {"id", "p_mw", "q_mvar", "type"}
_BRANCH_KEYS = {"from", "to", "r", "x", "status"}


@dataclass(frozen=True)
class BusRecord:
    id: int
    p_mw: float = 0.0
    q_mvar: float = 0.0
    type: int = 1  # MATPOWER convention: 3 marks the slack/root


@dataclass(frozen=True)
class BranchRecord:
    from_bus: int
    to_bus: int
    r: float
    x: float
    status: int = 1


@dataclass(frozen=True)
class CaseFile:
    name: str
    base_mva: float
    buses: tuple[BusRecord, ...]
    branches: tuple[BranchRecord, ...]
    kind: str | None = None
    root: int | None = None
    warnings: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.base_mva <= 0:
            raise ParseError(f"base_mva must be positive, got {self.base_mva}")
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise ParseError("duplicate bus ids in case")
        declared = set(ids)
        for br in self.branches:
            for end in (br.from_bus, br.to_bus):
                if end not in declared:
                    raise DanglingBranch(end)

    def loads_pu(self) -> dict[int, complex]:
        """Net complex demand per bus in per-unit of base_mva."""
        return {b.id: (b.p_mw + 1j * b.q_mvar) / self.base_mva for b in self.buses}


def parse_case(text: str) -> CaseFile:
    """Parse native JSON or the MATPOWER-style subset, sniffing by first character."""
    stripped = text.lstrip()
    if not stripped:
        raise ParseError("empty case text", line=1, col=1)
    if stripped[0] == "{":
        return _parse_case_json(text)
    return _parse_case_matpower(text)


def _parse_case_json(text: str) -> CaseFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, col=exc.colno) from exc
    if not isinstance(doc, dict):
        raise ParseError("case document must be a JSON object")
    warnings = [f"ignored unknown case key {k!r}" for k in doc if k not in _CASE_KEYS]
    for req in ("base_mva", "buses", "branches"):
        if req not in doc:
            raise ParseError(f"case document missing required key {req!r}")
    buses = []
    for i, rec in enumerate(doc["buses"]):
        if "id" not in rec:
            raise ParseError(f"bus record {i} missing 'id'")
        warnings += [f"ignored unknown bus key {k!r}" for k in rec if k not in _BUS_KEYS]
        buses.append(
            BusRecord(
                id=int(rec["id"]),
                p_mw=float(rec.get("p_mw", 0.0)),
                q_mvar=float(rec.get("q_mvar", 0.0)),
                type=int(rec.get("type", 1)),
            )
        )
    branches = []
    for i, rec in enumerate(doc["branches"]):
        for req in ("from", "to", "r", "x"):
            if req not in rec:
                raise ParseError(f"branch record {i} missing {req!r}")
        warnings += [f"ignored unknown branch key {k!r}" for k in rec if k not in _BRANCH_KEYS]
        branches.append(
            BranchRecord(
                from_bus=int(rec["from"]),
                to_bus=int(rec["to"]),
                r=float(rec["r"]),
                x=float(rec["x"]),
                status=int(rec.get("status", 1)),
            )
        )
    return CaseFile(
        name=str(doc.get("name", "case")),
        base_mva=float(doc["base_mva"]),
        buses=tuple(buses),
        branches=tuple(branches),
        kind=doc.get("kind"),
        root=None if doc.get("root") is None else int(doc["root"]),
        warnings=tuple(warnings),
    )


_MP_MATRIX = re.compile(r"mpc\.(\w+)\s*=\s*\[", re.MULTILINE)
_MP_SCALAR = re.compile(r"mpc\.(\w+)\s*=\s*([^\[;]+);")


def _parse_case_matpower(text: str) -> CaseFile:
    lines = text.splitlines()
    scalars: dict[str, str] = {}
    matrices: dict[str, list[list[float]]] = {}
    warnings: list[str] = []
    i = 0
    while i < len(lines):
        raw = lines[i]
        line = raw.split("%", 1)[0].strip()
        i += 1
        if not line:
            continue
        m = _MP_MATRIX.match(line)
        if m:
            name = m.group(1)
            rows: list[list[float]] = []
            body = line[m.end():]
            lineno = i
            while True:
                body = body.split("%", 1)[0]
                closed = "]" in body
                body = body.replace("]", " ").replace(";", "\n")
                for rowno, chunk in enumerate(body.split("\n")):
                    vals = chunk.split()
                    if not vals:
                        continue
                    try:
                        rows.append([float(v) for v in vals])
                    except ValueError as exc:
                        raise ParseError(f"bad number in mpc.{name}: {exc}", line=lineno) from exc
                if closed:
                    break
                if i >= len(lines):
                    raise ParseError(f"unterminated matrix mpc.{name}", line=lineno)
                body = lines[i]
                lineno = i + 1
                i += 1
            matrices[name] = rows
            continue
        m = _MP_SCALAR.match(line)
        if m:
            scalars[m.group(1)] = m.group(2).strip().strip("'\"")
            continue
        if line.startswith("function") or line.startswith("mpc"):
            warnings.append(f"ignored line {i}: {line[:40]!r}")
    if "bus" not in matrices or "branch" not in matrices:
        raise ParseError("case text lacks mpc.bus / mpc.branch matrices", line=1)
    for name in matrices:
        if name not in ("bus", "branch"):
            warnings.append(f"ignored matrix mpc.{name}")
    try:
        base = float(scalars.get("baseMVA", "100"))
    except ValueError as exc:
        raise ParseError(f"bad mpc.baseMVA: {scalars['baseMVA']!r}") from exc
    buses = []
    root = None
    for row in matrices["bus"]:
        if len(row) < 4:
            raise ParseError("bus row needs at least [id type Pd Qd]")
        btype = int(row[1])
        if btype == 3 and root is None:
            root = int(row[0])
        buses.append(BusRecord(id=int(row[0]), p_mw=row[2], q_mvar=row[3], type=btype))
    branches = []
    for row in matrices["branch"]:
        if len(row) < 4:
            raise ParseError("branch row needs at least [from to r x]")
        status = int(row[10]) if len(row) > 10 else 1
        branches.append(
            BranchRecord(from_bus=int(row[0]), to_bus=int(row[1]), r=row[2], x=row[3], status=status)
        )
    return CaseFile(
        name=scalars.get("name", "case"),
        base_mva=base,
        buses=tuple(buses),
        branches=tuple(branches),
        root=root,
        warnings=tuple(warnings),
    )


def to_grid_graph(case: CaseFile, kind: str | None = None, root: int | None = None) -> GridGraph:
    """Build a validated GridGraph; out-of-service branches are kept with status 0."""
    kind = kind or case.kind or DISTRIBUTION
    if kind == DISTRIBUTION:
        root = root if root is not None else case.root
        if root is None:
            raise ParseError("distribution graph requires a root bus")
    branches = tuple(
        Branch(
            from_bus=br.from_bus,
            to_bus=br.to_bus,
            impedance=complex(br.r, br.x),
            in_service=bool(br.status),
        )
        for br in case.branches
    )
    return GridGraph(
        bus_ids=tuple(b.id for b in case.buses),
        branches=branches,
        kind=kind,
        root=root if kind == DISTRIBUTION else None,
    )


def load_case(name_or_path: str) -> CaseFile:
    """Load a bundled case by name (ieee33/ieee69/ieee30/ieee39) or any path."""
    if name_or_path in BUILTIN_CASES:
        text = resources.files("ugcn.cases").joinpath(f"{name_or_path}.case.json").read_text()
    else:
        with open(name_or_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_case(text)


# --------------------------------------------------------------------------
# Versioned containers


def _canonical_payload(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


class F64Block:
    """An immutable 1-D float64 tensor part, which a container moves as raw bytes.

    `array` is a read-only, contiguous little-endian view, of the encoded
    tensor (a copy where it is strided) or of the bytes a container was read
    from.  Blocks are equal when their bits are; the repr is exact but short:
    the length and the SHA-256 of the bytes.
    """

    __slots__ = ("array",)

    def __init__(self, array):
        view = np.ascontiguousarray(array, dtype="<f8").view()
        if view.ndim != 1:
            raise ValueError(f"an F64Block holds a 1-D array, got shape {view.shape}")
        view.flags.writeable = False
        object.__setattr__(self, "array", view)

    def __setattr__(self, name, value):
        raise AttributeError("an F64Block is immutable")

    def __len__(self) -> int:
        return len(self.array)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.array, dtype=dtype, copy=copy)

    def __eq__(self, other):
        if not isinstance(other, F64Block):
            return NotImplemented
        return np.array_equal(self.array.view(np.uint64), other.array.view(np.uint64))

    def __repr__(self) -> str:
        return f"F64Block(len={len(self)}, sha256={hashlib.sha256(self.array).hexdigest()})"

    def __reduce__(self):
        return F64Block, (self.array,)


def _split_floats(obj, chunks: list):
    """`obj` with every F64Block replaced by a ``$f64`` reference; the
    block's array goes to the end of `chunks`, paired with the reference's
    ``[offset, count]``.

    A module-level function on purpose: a recursive closure is a reference
    cycle, which would keep `chunks`, and so every tensor of the payload,
    alive until the cyclic garbage collector happens to run.
    """
    if isinstance(obj, dict):
        if _F64_REF in obj:
            raise UgcnError(f"payload key {_F64_REF!r} is reserved for tensor references")
        return {key: _split_floats(value, chunks) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_split_floats(value, chunks) for value in obj]
    if isinstance(obj, F64Block):
        # a tensor starts where the one before it ends
        ref = [sum(chunks[-1][0]) if chunks else 0, len(obj)]
        chunks.append((ref, obj.array))
        return {_F64_REF: ref}
    return obj


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w", **open_kwargs):
    """Open `<path>.tmp` for writing and rename it over `path` once the block
    completes; on any failure the temporary file is removed and `path` is
    left as it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_container(path: str, payload: dict) -> None:
    """Write `payload` as one versioned frame; the file at `path` is replaced atomically.

    The blob is never assembled: its CRC is taken and its bytes written one
    tensor at a time.
    """
    chunks: list = []
    head = _canonical_payload(_split_floats(payload, chunks))
    prefix = _U64.pack(len(head)) + head
    crc = zlib.crc32(prefix)
    for _, array in chunks:
        crc = zlib.crc32(array, crc)
    length = len(prefix) + 8 * sum(ref[1] for ref, _ in chunks)
    with atomic_write(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, SCHEMA_VERSION, length, crc))
        fh.write(prefix)
        for _, array in chunks:
            fh.write(array)


def load_container(path: str) -> dict:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:len(MAGIC)] != MAGIC:
        raise CorruptFile(f"{path}: not a UGCN container")
    if len(data) < _HEADER.size:
        raise CorruptFile(f"{path}: truncated header")
    _, version, length, crc = _HEADER.unpack_from(data)
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(version, SCHEMA_VERSION)
    body = memoryview(data)[_HEADER.size:]
    if len(body) != length:
        raise CorruptFile(f"{path}: payload length mismatch")
    if zlib.crc32(body) != crc:
        raise CorruptFile(f"{path}: checksum mismatch")
    if length < _U64.size:
        raise CorruptFile(f"{path}: body lacks its head length")
    (head_len,) = _U64.unpack_from(body)
    blob = body[_U64.size + head_len:]
    if _U64.size + head_len > length or len(blob) % 8:
        raise CorruptFile(f"{path}: head length does not fit the body")
    values = np.frombuffer(blob, dtype="<f8")

    def resolve(doc: dict):
        if _F64_REF not in doc:
            return doc
        offset, count = doc[_F64_REF]
        if not 0 <= offset <= offset + count <= len(values):
            raise CorruptFile(f"{path}: tensor reference outside the blob")
        return F64Block(values[offset:offset + count])

    try:
        payload = json.loads(bytes(body[_U64.size:_U64.size + head_len]), object_hook=resolve)
    except (ValueError, TypeError) as exc:
        raise CorruptFile(f"{path}: bad head: {exc}") from exc
    if not isinstance(payload, dict):
        raise CorruptFile(f"{path}: head is not a payload object")
    return payload


# --------------------------------------------------------------------------
# Tensor and graph codecs used by dataset/checkpoint payloads


def encode_array(a: np.ndarray) -> dict:
    """`a` as its shape and its row-major values, complex ones as re/im parts.

    The parts are views of `a` where they can be, so save the payload before
    `a` changes.
    """
    a = np.asarray(a)
    if np.iscomplexobj(a):
        a = np.asarray(a, dtype=np.complex128)
        return {"shape": list(a.shape), "re": F64Block(a.real.reshape(-1)),
                "im": F64Block(a.imag.reshape(-1))}
    return {"shape": list(a.shape), "re": F64Block(np.asarray(a, dtype=np.float64).reshape(-1))}


def decode_array(doc: dict) -> np.ndarray:
    """A new array holding the tensor `doc` encodes; `CorruptFile` when its
    shape does not fit its values."""
    shape = tuple(doc["shape"])
    parts = []
    for key in ("re", "im") if "im" in doc else ("re",):
        part = np.array(doc[key], dtype=np.float64)
        if not all(type(n) is int and n >= 0 for n in shape) or part.shape != (math.prod(shape),):
            raise CorruptFile(f"tensor of shape {list(shape)} holds {part.size} values")
        parts.append(part.reshape(shape))
    if len(parts) == 1:
        return parts[0]
    # written part by part: `re + 1j * im` would round -0.0 and inf parts
    out = np.empty(shape, dtype=np.complex128)
    out.real, out.imag = parts
    return out


def encode_graph(g: GridGraph) -> dict:
    return {
        "bus_ids": list(g.bus_ids),
        "branches": [
            [br.from_bus, br.to_bus, br.impedance.real, br.impedance.imag, int(br.in_service)]
            for br in g.branches
        ],
        "kind": g.kind,
        "root": g.root,
    }


def decode_graph(doc: dict) -> GridGraph:
    return GridGraph(
        bus_ids=tuple(doc["bus_ids"]),
        branches=tuple(
            Branch(int(f), int(t), complex(re, im), bool(st))
            for f, t, re, im, st in doc["branches"]
        ),
        kind=doc["kind"],
        root=doc["root"],
    )


def save_dataset(path: str, payload: dict) -> None:
    save_container(path, {"kind": "dataset", **payload})


def load_dataset(path: str) -> dict:
    payload = load_container(path)
    if payload.get("kind") != "dataset":
        raise CorruptFile(f"{path}: container does not hold a dataset")
    return payload


def save_checkpoint(path: str, payload: dict) -> None:
    save_container(path, {"kind": "checkpoint", **payload})


def load_checkpoint(path: str) -> dict:
    payload = load_container(path)
    if payload.get("kind") != "checkpoint":
        raise CorruptFile(f"{path}: container does not hold a checkpoint")
    return payload
