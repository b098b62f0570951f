"""Case parsing and container round trips."""

import importlib
import json
import math
import os
import pathlib
import pickle
import struct
import sys
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugcn import caseio
from ugcn.caseio import (
    BUILTIN_CASES,
    CaseFile,
    F64Block,
    decode_array,
    encode_array,
    load_case,
    load_container,
    load_dataset,
    parse_case,
    save_container,
    save_dataset,
    to_grid_graph,
)
from ugcn.errors import (
    CorruptFile,
    DanglingBranch,
    Disconnected,
    NotRadial,
    ParseError,
    SchemaVersionMismatch,
    UgcnError,
)
from ugcn.scenarios import scenario_from_payload, scenario_to_payload

MINIMAL_JSON = """
{"format": "ugcn-case", "version": 1, "name": "tiny", "base_mva": 10.0,
 "kind": "distribution", "root": 1,
 "buses": [{"id": 1}, {"id": 2, "p_mw": 0.5, "q_mvar": 0.2}],
 "branches": [{"from": 1, "to": 2, "r": 0.0, "x": 1.0}]}
"""

MINIMAL_MATPOWER = """
function mpc = tiny
mpc.baseMVA = 10;
mpc.bus = [
    1 3 0.0 0.0;
    2 1 0.5 0.2;
];
mpc.branch = [
    1 2 0.0 1.0;
];
"""


def serialize_case(case: CaseFile) -> str:
    """Write a CaseFile back to the native JSON schema (parse round trips)."""
    doc = {
        "format": "ugcn-case",
        "version": 1,
        "name": case.name,
        "base_mva": case.base_mva,
        "kind": case.kind,
        "root": case.root,
        "buses": [
            {"id": b.id, "p_mw": b.p_mw, "q_mvar": b.q_mvar, "type": b.type}
            for b in case.buses
        ],
        "branches": [
            {"from": br.from_bus, "to": br.to_bus, "r": br.r, "x": br.x, "status": br.status}
            for br in case.branches
        ],
    }
    return json.dumps(doc, indent=1) + "\n"


class TestParseCase:
    def test_minimal_json(self):
        case = parse_case(MINIMAL_JSON)
        assert len(case.buses) == 2
        assert len(case.branches) == 1
        assert case.branches[0].x == 1.0
        assert case.base_mva == 10.0

    def test_minimal_matpower(self):
        case = parse_case(MINIMAL_MATPOWER)
        assert len(case.buses) == 2
        assert len(case.branches) == 1
        assert case.root == 1          # type-3 bus marks the slack
        assert case.base_mva == 10.0

    def test_matpower_single_line_matrix(self):
        case = parse_case("mpc.baseMVA = 100;\nmpc.bus = [1 3 0 0; 2 1 1 1];\n"
                          "mpc.branch = [1 2 0.1 0.2];")
        assert len(case.buses) == 2

    def test_unknown_fields_warn(self):
        text = MINIMAL_JSON.replace('"name": "tiny",', '"name": "tiny", "color": "red",')
        case = parse_case(text)
        assert any("color" in w for w in case.warnings)

    def test_dangling_branch(self):
        text = MINIMAL_JSON.replace('"to": 2', '"to": 99')
        with pytest.raises(DanglingBranch) as err:
            parse_case(text)
        assert err.value.bus == 99

    def test_parse_error_has_location(self):
        with pytest.raises(ParseError) as err:
            parse_case('{"bad json": ')
        assert err.value.line is not None

    def test_parse_serialize_parse_idempotent(self):
        for name in BUILTIN_CASES + ("minimal",):
            case = parse_case(MINIMAL_JSON) if name == "minimal" else load_case(name)
            text = serialize_case(case)
            again = parse_case(text)
            assert serialize_case(again) == text
            assert again.buses == case.buses
            assert again.branches == case.branches

    def test_builtin_cases_load(self):
        expected = {"ieee33": (33, 32), "ieee69": (69, 68), "ieee30": (30, 41), "ieee39": (39, 46)}
        for name in BUILTIN_CASES:
            case = load_case(name)
            buses, branches = expected[name]
            assert len(case.buses) == buses
            assert len(case.branches) == branches
            assert all(br.status == 1 for br in case.branches)
            assert case.warnings == ()


class TestToGridGraph:
    def test_round_trip_to_graph(self):
        g = to_grid_graph(parse_case(MINIMAL_JSON))
        assert g.n == 2
        assert g.branches[0].impedance == 1j

    def test_tie_switch_loop_rejected(self):
        import json

        raw = json.loads(load_case_text("ieee33"))
        raw["branches"].append({"from": 18, "to": 33, "r": 0.1, "x": 0.1, "status": 1})
        with pytest.raises(NotRadial):
            to_grid_graph(parse_case(json.dumps(raw)))

    def test_open_tie_switch_kept_out_of_service(self):
        import json

        raw = json.loads(load_case_text("ieee33"))
        raw["branches"].append({"from": 18, "to": 33, "r": 0.1, "x": 0.1, "status": 0})
        g = to_grid_graph(parse_case(json.dumps(raw)))
        assert len(g.branches) == 33
        assert len(g.in_service()) == 32

    def test_transmission_disconnected_rejected(self):
        text = """{"format": "ugcn-case", "version": 1, "base_mva": 100,
        "buses": [{"id": 1}, {"id": 2}, {"id": 3}, {"id": 4}],
        "branches": [{"from": 1, "to": 2, "r": 0, "x": 1},
                     {"from": 3, "to": 4, "r": 0, "x": 1}]}"""
        with pytest.raises(Disconnected):
            to_grid_graph(parse_case(text), kind="transmission")


def load_case_text(name):
    from importlib import resources

    return resources.files("ugcn.cases").joinpath(f"{name}.case.json").read_text()


def _bits(obj, loaded=False):
    """`obj` with every float replaced by its IEEE bytes and every scalar tagged
    by type, so equality means a bit-exact, type-exact round trip."""
    if type(obj) is float:
        return struct.pack("<d", obj)
    if isinstance(obj, (list, tuple)):
        assert not (loaded and isinstance(obj, tuple)), "a tuple must come back as a list"
        return [_bits(v, loaded) for v in obj]
    if isinstance(obj, dict):
        return {k: _bits(v, loaded) for k, v in obj.items()}
    return (type(obj).__name__, obj)


# Floats outside blocks travel as JSON text, whose repr keeps every finite
# value, -0.0 and inf exactly but only one NaN; blocks travel as raw float64
# and keep every bit pattern.
_TEXT_FLOATS = st.floats(allow_nan=False)
_BLOB_FLOATS = st.floats() | st.sampled_from(
    [-0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072e-308])
_FLOAT_LISTS = st.lists(_TEXT_FLOATS, min_size=1, max_size=20)
_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=8) | _TEXT_FLOATS
    | _FLOAT_LISTS | _FLOAT_LISTS.map(tuple) | st.just([])
    | st.lists(_BLOB_FLOATS, max_size=20).map(lambda v: F64Block(np.array(v, dtype=float)))
    | st.lists(st.integers() | _TEXT_FLOATS, min_size=1, max_size=8)
)
_KEYS = st.text(max_size=6).filter(lambda k: k != "$f64")
_PAYLOADS = st.dictionaries(_KEYS, st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=20,
), max_size=5)


def _round_trip(directory, payload) -> dict:
    """Save and reload `payload`; the reload is checked bit and type exact
    (blocks compare bit for bit) and returned."""
    path = os.path.join(directory, "x.ugcn.json")
    save_container(path, payload)
    loaded = load_container(path)
    assert _bits(loaded, loaded=True) == _bits(payload)
    return loaded


def _from_bits(*patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


_RNG = np.random.default_rng(0)
_CODEC_CASES = {
    "signed-zeros": np.array([0.0, -0.0, 1.0]),
    "nan-payloads": _from_bits(0x7FF8000000000001, 0xFFF8000000000002, 0x7FF0000000000003,
                               0xFFF4000000000000),
    "infinities": np.array([math.inf, -math.inf]),
    "subnormals": np.array([5e-324, -5e-324, 2.2250738585072e-308]),
    "empty": np.zeros(0),
    "empty-2d": np.zeros((2, 0)),
    "0-d": np.array(-2.5),
    "ints": np.arange(6).reshape(2, 3),
    "transposed": _RNG.standard_normal((3, 4)).T,
    "complex": _RNG.standard_normal((2, 5)) + 1j * _RNG.standard_normal((2, 5)),
    "complex-transposed": (_RNG.standard_normal((3, 2)) + 1j * _RNG.standard_normal((3, 2))).T,
    "complex-special": np.array([complex(-0.0, math.nan), complex(math.inf, -0.0),
                                 complex(5e-324, -math.inf)]),
}


class TestContainers:
    def test_json_round_trip(self, tmp_path):
        path = str(tmp_path / "x.ugcn.json")
        payload = {"kind": "dataset", "a": [1.5, 2.25], "nested": {"b": "text"}}
        save_container(path, payload)
        assert load_container(path) == payload

    def test_binary_round_trip(self, tmp_path):
        path = str(tmp_path / "x.ugcn.bin")
        payload = {"kind": "dataset", "a": list(np.linspace(0, 1, 7))}
        save_container(path, payload)
        assert load_container(path) == payload

    def test_truncated_binary_raises(self, tmp_path):
        path = str(tmp_path / "x.ugcn.bin")
        save_container(path, {"kind": "dataset", "a": [1, 2, 3]})
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-4])
        with pytest.raises(CorruptFile):
            load_container(path)

    def test_corrupted_payload_raises(self, tmp_path):
        path = str(tmp_path / "x.ugcn.bin")
        save_container(path, {"kind": "dataset", "a": [1, 2, 3]})
        blob = bytearray(open(path, "rb").read())
        blob[-2] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CorruptFile):
            load_container(path)

    @pytest.mark.parametrize("head, blob", [
        (b'{"a":{"$f64":[0,5]}}', b"\0" * 16),     # reference past the blob
        (b'{"a":{"$f64":"x"}}', b""),              # malformed reference
        (b'[1.5]', b""),                           # head is not an object
        (b'{"a":1}', b"\0" * 3),                   # blob not whole float64s
    ])
    def test_malformed_body_raises(self, tmp_path, head, blob):
        body = struct.pack("<Q", len(head)) + head + blob
        path = tmp_path / "x.ugcn.json"
        path.write_bytes(struct.pack("<4sIQI", b"UGCN", 2, len(body), zlib.crc32(body)) + body)
        with pytest.raises(CorruptFile):
            load_container(str(path))

    def test_version_mismatch(self, tmp_path):
        path = str(tmp_path / "x.ugcn.bin")
        body = b'{"kind": "dataset"}'
        with open(path, "wb") as fh:
            fh.write(struct.pack("<4sIQI", b"UGCN", 0, len(body), zlib.crc32(body)))
            fh.write(body)
        with pytest.raises(SchemaVersionMismatch) as err:
            load_container(path)
        assert err.value.found == 0

    def test_v1_frame_version_mismatch(self, tmp_path):
        path = str(tmp_path / "x.ugcn.json")
        save_container(path, {"kind": "dataset", "a": [0.5]})
        blob = bytearray(open(path, "rb").read())
        struct.pack_into("<I", blob, 4, 1)
        open(path, "wb").write(bytes(blob))
        with pytest.raises(SchemaVersionMismatch) as err:
            load_container(path)
        assert err.value.found == 1

    def test_json_text_file_refused(self, tmp_path):
        path = tmp_path / "x.ugcn.json"
        path.write_text('{"magic": "UGCN", "version": 1, "crc32": 0, "payload": {}}\n')
        with pytest.raises(CorruptFile, match="not a UGCN container"):
            load_container(str(path))

    def test_reserved_key_refused(self, tmp_path):
        path = str(tmp_path / "x.ugcn.json")
        with pytest.raises(UgcnError, match="reserved"):
            save_container(path, {"kind": "dataset", "nested": [{"$f64": [0, 1]}]})
        assert not os.listdir(tmp_path)

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "x.ugcn.json")
        save_container(path, {"kind": "dataset", "a": [1.0, 2.0]})
        before = open(path, "rb").read()
        real_open = open

        class FailsAfterFirstWrite:
            def __init__(self, file, mode):
                self.fh = real_open(file, mode)
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 1:
                    raise OSError("disk full")
                return self.fh.write(data)

        monkeypatch.setattr(caseio, "open", FailsAfterFirstWrite, raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_container(path, {"kind": "dataset", "a": [3.0] * 100})
        monkeypatch.undo()
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["x.ugcn.json"]

    def test_interrupted_text_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("old\n")
        with pytest.raises(RuntimeError, match="interrupted"):
            with caseio.atomic_write(str(path), encoding="utf-8") as fh:
                fh.write("half")
                raise RuntimeError("interrupted")
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["r.json"]

    @settings(max_examples=150, deadline=None)
    @given(payload=_PAYLOADS)
    def test_round_trip_property(self, payload):
        with tempfile.TemporaryDirectory() as d:
            _round_trip(d, payload)

    def test_array_codec_bit_exact(self, tmp_path):
        """An encoded tensor's values come back bit exact from memory, from
        disk and from a pickle."""
        for name, a in _CODEC_CASES.items():
            doc = encode_array(a)
            assert all(type(doc[key]) is F64Block for key in doc.keys() - {"shape"}), name
            loaded = _round_trip(str(tmp_path), {"kind": "dataset", "t": doc})["t"]
            for parts in (doc, loaded, pickle.loads(pickle.dumps(doc))):
                for key in parts.keys() - {"shape"}:
                    values = parts[key]
                    assert type(values) is F64Block, name
                    assert np.array_equal(np.array(values).view(np.uint64),
                                          np.asarray(values.array).view(np.uint64)), name
                back = decode_array(parts)
                assert back.shape == a.shape, name
                assert back.dtype == (np.complex128 if np.iscomplexobj(a) else np.float64), name
                assert np.array_equal(np.ascontiguousarray(back).view(np.uint64),
                                      np.ascontiguousarray(a, dtype=back.dtype).view(np.uint64)), name

    def test_f64_block_identity(self, monkeypatch):
        """Equal bits, and only equal bits, give equal blocks, reprs and
        benchmark digests; the array refuses writes; pickle and
        `np.asarray` give the bits back."""
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))
        monkeypatch.delitem(sys.modules, "checks", raising=False)
        checks = importlib.import_module("checks")

        base = np.linspace(-1.0, 1.0, 101)
        block = F64Block(base)
        same = F64Block(base.copy())
        assert same == block and repr(same) == repr(block)
        assert checks.digest({"t": same}) == checks.digest({"t": block})
        ulp = base.copy()
        ulp[50] = np.nextafter(ulp[50], np.inf)
        pairs = {
            "one ulp mid-array": (block, F64Block(ulp)),
            "signed zero": (F64Block(np.array([0.0, 1.0])), F64Block(np.array([-0.0, 1.0]))),
            "nan payload": (F64Block(_from_bits(0x7FF8000000000001)),
                            F64Block(_from_bits(0x7FF8000000000002))),
        }
        for name, (a, b) in pairs.items():
            assert a != b, name
            assert repr(a) != repr(b), name
            assert checks.digest({"t": a}) != checks.digest({"t": b}), name
        assert repr(block).startswith("F64Block(len=101, sha256=")

        with pytest.raises(ValueError, match="read-only"):
            block.array[0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            np.asarray(block)[0] = 2.0
        with pytest.raises(AttributeError, match="immutable"):
            block.array = ulp
        assert base.flags.writeable   # the block's view is read-only, not its source

        for back in (pickle.loads(pickle.dumps(block)), F64Block(np.asarray(block))):
            assert type(back) is F64Block and back == block and repr(back) == repr(block)
        nan = pairs["nan payload"][1]
        assert np.asarray(pickle.loads(pickle.dumps(nan))).view(np.uint64)[0] == 0x7FF8000000000002


class TestScenarioRoundTrip:
    def test_bitwise_equal_tensors(self, tmp_path, chain4):
        from ugcn.scenarios import ScenarioConfig, build_scenario

        cfg = ScenarioConfig(t_total=16, scenario="ami", seed=5, noise_sigma=0.001)
        loads = {b: 0.02 + 0.01j for b in chain4.bus_ids}
        system = build_scenario(chain4, cfg, 0, loads)
        for suffix in (".ugcn.json", ".ugcn.bin"):
            path = str(tmp_path / ("s" + suffix))
            save_dataset(path, {"systems": [scenario_to_payload(system)]})
            back = scenario_from_payload(load_dataset(path)["systems"][0])
            assert np.array_equal(back.true_states, system.true_states)
            assert np.array_equal(back.estimates, system.estimates)
            assert back.graph.bus_ids == system.graph.bus_ids
            assert back.ami_buses == system.ami_buses
