"""Storage-system simulator.

Wraps a code (concatenated, or pure layered: the concatenated code's
one-component case) behind a small system model: ingest a blob of M
symbols onto n simulated nodes, serve collection requests from exactly
k nodes with an access log, and repair single node failures with
exactly beta symbols from each of the other n-1 nodes.  States persist
as one little-endian binary file per node, the blob's only copy, plus
a manifest of content digests; a load accepts only the field's symbols.
"""

from __future__ import annotations

import hashlib
import json
import os
from itertools import repeat
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from graphcodes.combinat import layer
from graphcodes.concat import ConcatCode, ReadLog, code_family, live_concat, named_family
from graphcodes.field import _check_order, _ints


class LayeredCode(ConcatCode):
    """Pure layered code: the concatenated code's case k = n-1, one
    component with nothing injected and no rounds (every round code,
    c = 0 included, has codimension 0).

    Collection needs exactly k = n-1 nodes (every layer is then fully
    or sufficiently accessed); repair downloads C(n-2,v-2) symbols per
    helper.
    """

    def __init__(self, n: int, v: int, q: int):
        super().__init__(n, v, n - 1, q)


class StorageState:
    """Blob, node arrays, and the audit trail of a simulated system.

    access_log keeps one entry per collect, its concat.ReadLog: one
    (node, offsets) record per node read, every record of a code sharing
    one offsets tuple, so an entry holds k records, not k*alpha pairs."""

    def __init__(self, code, blob: Sequence[int],
                 nodes: Optional[List[List[int]]] = None):
        self.code = code
        self.blob = list(blob)
        self.nodes = nodes if nodes is not None else code.encode(self.blob)
        if len(self.nodes) != code.n:
            raise ValueError(f"{len(self.nodes)} node arrays, expected n={code.n}")
        if any(row is None or len(row) != code.alpha for row in self.nodes):
            raise ValueError("node array width differs from alpha")
        self.access_log: List[ReadLog] = []
        self.last_repair_log = ReadLog([])

    @property
    def last_repair_bandwidth(self) -> Dict[int, int]:
        """{helper: symbols it sent}, read off last_repair_log."""
        return {j: len(offsets) for j, offsets in self.last_repair_log.records}


def ingest(code, blob: Sequence[int]) -> StorageState:
    """Encode a blob of M symbols onto the n simulated nodes; the code's
    encode refuses a blob of another length."""
    return StorageState(code, blob)


def _check_reads(log: ReadLog, contacted: Sequence[int]) -> None:
    """ValueError if a record of log names a node outside contacted."""
    outside = {i for i, _ in log.records} - set(contacted)
    if outside:
        raise ValueError(f"reads outside contacted nodes: {sorted(outside)}")


def collect(state: StorageState, A: Sequence[int]) -> List[int]:
    """Blob back from the nodes in A.  The collect's read log, one
    (node, offsets) record per node read with the offsets tuple shared
    (concat.ReadLog), is appended to state.access_log; ValueError if a
    record names a node outside A."""
    blob, log = state.code.collect(state.nodes, A)
    state.access_log.append(log)
    _check_reads(log, layer(A))
    return blob


def repair_node(state: StorageState, failed: int) -> StorageState:
    """New state with the failed node rebuilt from the other n-1 nodes
    (the codes are defined with d = n-1); single failures only.  The
    repair's read log, one (helper, offsets) record per helper, is kept
    as the new state's last_repair_log; ValueError if a record names
    the failed node."""
    column, log = state.code.repair(state.nodes, failed)
    _check_reads(log, [j for j in range(state.code.n) if j != failed])
    nodes = [list(row) for row in state.nodes]
    nodes[failed] = column
    out = StorageState(state.code, state.blob, nodes)
    out.last_repair_log = log
    return out


# ----- persistence -----

def _symbol_bytes(q: int) -> int:
    return ((q - 1).bit_length() + 7) // 8


def _pack(symbols: Sequence[int], width: int) -> bytes:
    """Checked symbols, width bytes each, little-endian, packed in C."""
    if width == 1:
        return bytes(symbols)
    return b"".join(map(int.to_bytes, symbols, repeat(width), repeat("little")))


def _unpack(data: bytes, width: int) -> List[int]:
    return list(data) if width == 1 else _ints(data, width)


def _describe(code: ConcatCode) -> Dict:
    if code_family(code.n, code.v, code.k) == "layered":
        return {"family": "layered", "n": code.n, "v": code.v, "q": code.F.q}
    return {"family": "concat", "n": code.n, "v": code.v, "k": code.k,
            "q": code.F.q, "scenario": code.layout.name}


def _required(doc: Dict, key: str, where: str = "manifest"):
    """doc[key], or ValueError when a manifest lacks it."""
    try:
        return doc[key]
    except (KeyError, TypeError):
        raise ValueError(f"{where} has no {key!r}") from None


def _shape(doc: Dict) -> Tuple[int, int, int, int]:
    """The (n, v, k, q) a code description names, checked as a build
    checks them, with no build: ValueError unless they are ints and
    code_family names a family for (n, v, k)."""
    where = "code description"
    family, n, v, q = (_required(doc, key, where) for key in ("family", "n", "v", "q"))
    if family == "layered":  # no k: it is n-1, and code_family names a non-int n
        k = n - 1 if isinstance(n, int) else None
    else:
        k = _required(doc, "k", where)
    named_family(n, v, k)
    _check_order(q)
    return n, v, k, q


def _sizes(n: int, v: int, k: int) -> Tuple[int, int]:
    """(alpha, M) of the code of a shape that code_family names, in
    closed form: C(n-1, v-1) and C(n, v) (v-1) for the pure layered code
    (k = n-1), the MSR point (n-k)^k and k alpha for the cascade."""
    if k == n - 1:
        return comb(n - 1, v - 1), comb(n, v) * (v - 1)
    alpha = (n - k) ** k
    return alpha, k * alpha


def code_from_manifest(doc: Dict) -> ConcatCode:
    """live_concat of the (n, v, k, q) a code description names: a live
    code of those parameters is shared (a code does not change after it
    is built), else one is built.  Raises ValueError unless
    _describe(code) gives back that description."""
    code = live_concat(*_shape(doc))
    if _describe(code) != doc:
        raise ValueError(f"code description {doc!r} differs from the code's own "
                         f"{_describe(code)!r}")
    return code


def _node_file(i: int, slot: int) -> str:
    """Name of node i's file in one of the two alternating file sets."""
    return f"node_{i}.bin" if slot == 0 else f"node_{i}.1.bin"


def _node_files_in_use(path: str) -> List[str]:
    """The node files listed by the store's manifest; none when there
    is no readable manifest."""
    try:
        with open(os.path.join(path, "manifest.json")) as fh:
            files = json.load(fh)["node_files"]
    except (OSError, ValueError, KeyError, TypeError):
        return []
    return files if isinstance(files, list) else []


def save_state(state: StorageState, path: str) -> None:
    """manifest.json plus one file of little-endian symbols per node.

    The node files alternate between two sets of names (node_<i>.bin
    and node_<i>.1.bin).  A save writes the set the current manifest
    does not list, then replaces the manifest through a temporary file
    with os.replace, then deletes the other set.  A save cut short
    before the replace leaves the old state loadable; after it, the new
    one.  Nothing is fsynced, so this covers a crashed process, not a
    lost page cache.  Before any file is written, every symbol is held
    to the field's rule and the blob must be the payload the node
    arrays store (ConcatCode.stored_payload), so a save never writes a
    store that load_state refuses.  The manifest,
    json.dumps(manifest, indent=2) in one write, holds no blob: the node
    files are its one copy.
    """
    F, M = state.code.F, state.code.M
    if len(F.check_symbols(state.blob, "blob")) != M:
        raise ValueError(f"blob holds {len(state.blob)} symbols, expected {M}")
    if state.code.stored_payload(state.nodes) != state.blob:
        raise ValueError("the blob is not the payload the node arrays store")
    os.makedirs(path, exist_ok=True)
    old = _node_files_in_use(path)
    slot = int(_node_file(0, 0) in old)
    width = _symbol_bytes(F.q)
    files, digests = [], {}
    for i, row in enumerate(state.nodes):
        data = _pack(row, width)
        name = _node_file(i, slot)
        files.append(name)
        digests[name] = hashlib.sha256(data).hexdigest()
        with open(os.path.join(path, name), "wb") as fh:
            fh.write(data)
    manifest = {"code": _describe(state.code), "alpha": state.code.alpha, "M": M,
                "symbol_bytes": width, "node_files": files, "digests": digests,
                "blob_digest": hashlib.sha256(_pack(state.blob, width)).hexdigest()}
    tmp = os.path.join(path, "manifest.json.tmp")
    with open(tmp, "w") as fh:
        fh.write(json.dumps(manifest, indent=2))
    os.replace(tmp, os.path.join(path, "manifest.json"))
    for i in range(len(old)):
        try:
            os.remove(os.path.join(path, _node_file(i, 1 - slot)))
        except FileNotFoundError:
            pass


def load_state(path: str) -> StorageState:
    """The state save_state wrote at path, every digest and symbol
    checked; a live code of the manifest's parameters is shared, not
    rebuilt (code_from_manifest); the blob is the payload the node files
    store (ConcatCode.stored_payload, no decode), checked against
    blob_digest, and an older manifest's "blob" copy is ignored.

    Before a code is built, node_files must be the n names of the
    description's n, each file alpha * symbol_bytes bytes long (alpha
    in closed form, _sizes), so a load does work bounded by the bytes
    of the store: a manifest naming a huge code is refused unbuilt."""
    with open(os.path.join(path, "manifest.json")) as fh:
        manifest = json.load(fh)
    desc = _required(manifest, "code")
    n, v, k, q = _shape(desc)
    files = _required(manifest, "node_files")
    # the length first, so the manifest's own size bounds n
    if (type(files) is not list or len(files) != n
            or files not in ([_node_file(i, slot) for i in range(n)] for slot in (0, 1))):
        raise ValueError(f"manifest lists unexpected node files {files!r}")
    (alpha, M), width = _sizes(n, v, k), _symbol_bytes(q)
    # type(x) is int refuses bools, as JSON true loads as one
    for key, want in (("alpha", alpha), ("M", M), ("symbol_bytes", width)):
        got = _required(manifest, key)
        if type(got) is not int or got != want:
            raise ValueError(f"manifest {key}={got!r} differs from the code's {key}={want}")
    digests = _required(manifest, "digests")
    nodes = []
    for name in files:
        with open(os.path.join(path, name), "rb") as fh:
            if os.fstat(fh.fileno()).st_size != alpha * width:
                raise ValueError(f"{name} is not alpha*symbol_bytes = {alpha * width} bytes long")
            data = fh.read()
        if hashlib.sha256(data).hexdigest() != _required(digests, name, "manifest digests"):
            raise ValueError(f"digest mismatch for {name}")
        nodes.append(_unpack(data, width))
    code = code_from_manifest(desc)
    blob = code.stored_payload(nodes)
    if hashlib.sha256(_pack(blob, width)).hexdigest() != _required(manifest, "blob_digest"):
        raise ValueError("digest mismatch for the blob the node files hold")
    return StorageState(code, blob, nodes)
