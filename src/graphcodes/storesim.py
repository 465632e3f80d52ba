"""Storage-system simulator.

Wraps a code (concatenated or pure layered) behind a small system
model: ingest a blob of M symbols onto n simulated nodes, serve
collection requests from k nodes with an access log, and repair single
node failures with exactly beta symbols from each of the other n-1
nodes.  States persist as a manifest plus one little-endian binary
file per node, guarded by content digests.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from graphcodes.concat import ConcatCode, build_concat
from graphcodes.field import field_make
from graphcodes.layered import (
    LayeredSpec,
    decode_layered,
    encode_layered,
    extract_data,
    fill_layers,
)
from graphcodes.combinat import layer


class LayeredCode:
    """Pure layered code with the same system interface as ConcatCode.

    Collection needs any n-1 nodes (every layer is then fully or
    sufficiently accessed); repair downloads C(n-2,v-2) symbols per
    helper.
    """

    def __init__(self, n: int, v: int, q: int):
        self.F = field_make(q)
        self.spec = LayeredSpec(self.F, n, v)
        self.n = n
        self.v = v
        self.k = n - 1
        self.alpha = self.spec.alpha
        self.M = self.spec.M1
        self.beta = self.spec.beta

    def encode(self, payload: Sequence[int]) -> List[List[int]]:
        return encode_layered(self.spec, list(payload))

    def collect(self, nodes: Sequence[Sequence[int]], A: Sequence[int]
                ) -> Tuple[List[int], List[Tuple[int, int]]]:
        A = layer(A)
        values = decode_layered(self.spec, nodes, A)
        log = [(i, off) for i in A for off in range(self.alpha)]
        return extract_data(self.spec, values), log

    def repair(self, nodes: Sequence[Sequence[int]], failed: int
               ) -> Tuple[List[int], Dict[int, int]]:
        spec = self.spec
        layers = spec.layers_at[failed]
        counts = {j: 0 for j in range(self.n) if j != failed}
        values = {}
        for L in layers:
            for j in L:
                if j != failed:
                    values[(L, j)] = nodes[j][spec.slot[(L, j)]]
                    counts[j] += 1
        fill_layers(self.F, values, {}, layers)
        return [values[(L, failed)] for L in layers], counts


class StorageState:
    """Blob, node arrays, and the audit trail of a simulated system."""

    def __init__(self, code, blob: Sequence[int],
                 nodes: Optional[List[List[int]]] = None):
        self.code = code
        self.blob = list(blob)
        self.nodes = nodes if nodes is not None else code.encode(self.blob)
        if any(len(row) != code.alpha for row in self.nodes):
            raise ValueError("node array width differs from alpha")
        self.access_log: List[List[Tuple[int, int]]] = []
        self.last_repair_bandwidth: Dict[int, int] = {}


def ingest(code, blob: Sequence[int]) -> StorageState:
    """Encode a blob of M symbols onto the n simulated nodes."""
    if len(blob) != code.M:
        raise ValueError(f"expected {code.M} symbols, got {len(blob)}")
    return StorageState(code, blob)


def collect(state: StorageState, A: Sequence[int]) -> List[int]:
    """Blob back from the nodes in A; the read log is appended to
    state.access_log and touches only nodes in A."""
    blob, log = state.code.collect(state.nodes, A)
    state.access_log.append(log)
    outside = {i for i, _ in log} - set(layer(A))
    if outside:
        raise AssertionError(f"reads outside contacted nodes: {outside}")
    return blob


def repair_node(state: StorageState, failed: int,
                helpers: Optional[Sequence[int]] = None) -> StorageState:
    """New state with the failed node rebuilt from the other n-1 nodes.

    Only single failures are supported; helpers, if given, must be all
    remaining nodes (the codes are defined with d = n-1).
    """
    n = state.code.n
    expected = [j for j in range(n) if j != failed]
    if helpers is not None and sorted(helpers) != expected:
        raise ValueError("repair requires helper data from all other nodes")
    column, counts = state.code.repair(state.nodes, failed)
    nodes = [list(row) for row in state.nodes]
    nodes[failed] = column
    out = StorageState(state.code, state.blob, nodes)
    out.last_repair_bandwidth = counts
    return out


# ----- persistence -----

def _symbol_bytes(q: int) -> int:
    return ((q - 1).bit_length() + 7) // 8


def _pack(symbols: Sequence[int], width: int) -> bytes:
    return b"".join(int(x).to_bytes(width, "little") for x in symbols)


def _unpack(data: bytes, width: int) -> List[int]:
    return [int.from_bytes(data[i:i + width], "little")
            for i in range(0, len(data), width)]


def _describe(code) -> Dict:
    if isinstance(code, ConcatCode):
        return {"family": "concat", "n": code.n, "v": code.v, "k": code.k,
                "q": code.F.q, "scenario": code.layout.name}
    if isinstance(code, LayeredCode):
        return {"family": "layered", "n": code.n, "v": code.v, "q": code.F.q}
    raise ValueError(f"cannot persist {type(code).__name__}")


def code_from_manifest(doc: Dict):
    if doc["family"] == "concat":
        return build_concat(doc["n"], doc["v"], doc["k"], doc["q"],
                            doc["scenario"])
    if doc["family"] == "layered":
        return LayeredCode(doc["n"], doc["v"], doc["q"])
    raise ValueError(f"unknown family {doc['family']!r}")


def save_state(state: StorageState, path: str) -> None:
    """manifest.json plus node_<i>.bin, little-endian symbols."""
    os.makedirs(path, exist_ok=True)
    width = _symbol_bytes(state.code.F.q)
    digests = {}
    for i, row in enumerate(state.nodes):
        data = _pack(row, width)
        digests[f"node_{i}.bin"] = hashlib.sha256(data).hexdigest()
        with open(os.path.join(path, f"node_{i}.bin"), "wb") as fh:
            fh.write(data)
    blob_bytes = _pack(state.blob, width)
    manifest = {
        "code": _describe(state.code),
        "alpha": state.code.alpha,
        "M": state.code.M,
        "symbol_bytes": width,
        "digests": digests,
        "blob_digest": hashlib.sha256(blob_bytes).hexdigest(),
        "blob": list(state.blob),
    }
    with open(os.path.join(path, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)


def load_state(path: str) -> StorageState:
    with open(os.path.join(path, "manifest.json")) as fh:
        manifest = json.load(fh)
    code = code_from_manifest(manifest["code"])
    width = manifest["symbol_bytes"]
    nodes = []
    for i in range(code.n):
        with open(os.path.join(path, f"node_{i}.bin"), "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        if digest != manifest["digests"][f"node_{i}.bin"]:
            raise ValueError(f"digest mismatch for node_{i}.bin")
        nodes.append(_unpack(data, width))
    state = StorageState(code, manifest["blob"], nodes)
    if (any(not 0 <= x < code.F.q for x in state.blob)
            or hashlib.sha256(_pack(state.blob, width)).hexdigest()
            != manifest["blob_digest"]):
        raise ValueError("digest mismatch for the manifest blob")
    return state
