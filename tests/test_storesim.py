"""Storage simulator: ingest, collect, repair, persistence."""

import gc
import hashlib
import itertools
import json
import os
import random
import re
import time
import weakref
from math import comb

import pytest

import reference
from graphcodes import concat, storesim
from graphcodes.concat import build_concat
from graphcodes.storesim import (
    LayeredCode,
    StorageState,
    code_from_manifest,
    collect,
    ingest,
    load_state,
    repair_node,
    save_state,
)
from test_concat import END_TO_END_SHAPES


def _seeded_blob(code, seed=0):
    rng = random.Random(seed)
    return [rng.randrange(code.F.q) for _ in range(code.M)]


@pytest.mark.parametrize("past_end", [False, True], ids=["-1", "n"])
@pytest.mark.parametrize("code_name", ["concat", "layered"])
@pytest.mark.parametrize("call", ["collect", "repair"])
def test_bad_node_index_rejected(call, code_name, past_end):
    code = build_concat(6, 4, 3, 7) if code_name == "concat" else LayeredCode(6, 3, 11)
    nodes = code.encode(_seeded_blob(code))
    bad = code.n if past_end else -1
    with pytest.raises(ValueError, match=f"bad node index {bad}"):
        if call == "collect":
            code.collect(nodes, tuple(range(code.k - 1)) + (bad,))
        else:
            code.repair(nodes, bad)


@pytest.mark.parametrize("bad", [1.0, True, "1"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("call", ["collect", "repair"])
def test_node_index_that_is_not_an_int_rejected(call, bad):
    # 1.0 and True index lists like 1 (a repair of True rebuilt node 1),
    # and a str in A broke the sort of A
    code = build_concat(6, 4, 3, 7)
    state = ingest(code, _seeded_blob(code))
    with pytest.raises(ValueError, match=re.escape(f"bad node index {bad!r}")):
        if call == "collect":
            collect(state, (0, 2, bad))
        else:
            repair_node(state, bad)
    assert state.access_log == []


def _damaged(code, j, damage):
    """Encoded node arrays with node j's array dropped (with every later
    one), one symbol short or one symbol long."""
    nodes = code.encode(_seeded_blob(code))
    if damage == "missing":
        return nodes[:j]
    nodes[j] = nodes[j][:-1] if damage == "short" else nodes[j] + [0]
    return nodes


@pytest.mark.parametrize("damage", ["missing", "short", "long"])
def test_collect_rejects_a_node_array_of_the_wrong_length(damage):
    code = build_concat(6, 4, 3, 7)
    with pytest.raises(ValueError, match=f"node 2 has no array of alpha={code.alpha} symbols"):
        code.collect(_damaged(code, 2, damage), (0, 1, 2))


@pytest.mark.parametrize("damage", ["missing", "short", "long"])
def test_repair_rejects_a_node_array_of_the_wrong_length(damage):
    code = build_concat(6, 4, 3, 7)
    with pytest.raises(ValueError, match=f"node 4 has no array of alpha={code.alpha} symbols"):
        code.repair(_damaged(code, 4, damage), 0)


@pytest.mark.parametrize("case", ["collect", "repair", "state", "anchor", "encode"])
def test_none_at_the_door_is_refused_typed(case):
    # None for every node array, for the anchor or for the payload is
    # refused with the ValueError of a wrong input, not a TypeError from
    # len() or iteration, worded as for any other wrong array, anchor or
    # payload
    code = build_concat(8, 5, 4, 11)
    blob = _seeded_blob(code)
    nodes, empty = code.encode(blob), [None] * code.n
    call, match = {
        "collect": (lambda: code.collect(empty, (0, 1, 2, 3)), "node 0 has no array of alpha=256"),
        "repair": (lambda: code.repair(empty, 0), "node 1 has no array of alpha=256"),
        "state": (lambda: StorageState(code, blob, empty), "node array width differs from alpha"),
        "anchor": (lambda: code.collect(nodes, None), "need exactly k=4 nodes, got 0"),
        "encode": (lambda: code.encode(None), "expected 1024 payload symbols, got 0"),
    }[case]
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("q", [11, 256])
@pytest.mark.parametrize("bad", ["-1", "q"])
@pytest.mark.parametrize("code_name", ["concat", "layered"])
def test_symbols_outside_the_field_rejected(code_name, bad, q):
    code = build_concat(5, 4, 3, q) if code_name == "concat" else LayeredCode(6, 3, q)
    blob = _seeded_blob(code)
    blob[len(blob) // 2] = -1 if bad == "-1" else q
    with pytest.raises(ValueError, match="is not an element of GF"):
        ingest(code, blob)


def test_layered_code_parameters():
    code = LayeredCode(8, 5, 11)
    assert code.k == 7
    assert code.alpha == comb(7, 4) == 35
    assert code.M == comb(8, 5) * 4 == 224
    assert code.beta == comb(6, 3) == 20


def test_layered_collect_and_log():
    code = LayeredCode(6, 3, 11)
    state = ingest(code, _seeded_blob(code))
    A = (0, 1, 2, 3, 4)
    assert collect(state, A) == state.blob
    log = state.access_log[-1]
    assert {i for i, _ in log} <= set(A)
    with pytest.raises(ValueError):
        collect(state, (0, 1, 2))


@pytest.mark.parametrize("make", [lambda: build_concat(8, 5, 4, 11),
                                  lambda: LayeredCode(6, 3, 11)], ids=["8-5-4-11", "6-3-11"])
def test_read_log_keeps_one_record_per_node(make):
    # each collect appends one log holding k (node, offsets) records, all
    # sharing one offsets tuple, that reads every symbol of A once
    code = make()
    state = ingest(code, _seeded_blob(code))
    for A in itertools.combinations(range(code.n), code.k):
        before = len(state.access_log)
        assert collect(state, A) == state.blob
        assert len(state.access_log) == before + 1
        log = state.access_log[-1]
        assert [i for i, _ in log.records] == list(A)
        assert all(offsets is log.records[0][1] for _, offsets in log.records)
        assert sorted(log) == list(itertools.product(A, range(code.alpha)))
        assert len(log) == code.k * code.alpha
    assert len({id(offsets) for log in state.access_log for _, offsets in log.records}) == 1


def test_collect_rejects_a_read_outside_the_anchor():
    code = LayeredCode(6, 3, 11)
    state = ingest(code, _seeded_blob(code))

    class ReadsNode5:
        """A code whose collect also logs a read of node 5."""

        def collect(self, nodes, A):
            blob, log = code.collect(nodes, A)
            log.records.append((5, log.records[0][1]))
            return blob, log

    state.code = ReadsNode5()
    with pytest.raises(ValueError, match=r"reads outside contacted nodes: \[5\]"):
        collect(state, (0, 1, 2, 3, 4))
    assert [i for i, _ in state.access_log[-1].records] == [0, 1, 2, 3, 4, 5]


def test_repair_rejects_a_read_of_the_failed_node():
    code = LayeredCode(6, 3, 11)
    state = ingest(code, _seeded_blob(code))

    class ReadsTheFailedNode:
        """A code whose repair also logs a read of the failed node."""

        n = code.n

        def repair(self, nodes, failed):
            column, log = code.repair(nodes, failed)
            log.records.append((failed, log.records[0][1]))
            return column, log

    state.code = ReadsTheFailedNode()
    with pytest.raises(ValueError, match=r"reads outside contacted nodes: \[2\]"):
        repair_node(state, 2)


def test_layered_collect_needs_exactly_k_nodes():
    # the pure layered code is the one-component concatenated code, so
    # its collect takes exactly k = n-1 nodes, as every collect does
    code = LayeredCode(6, 3, 11)
    nodes = code.encode(_seeded_blob(code))
    assert code.collect(nodes, range(5))[0] == _seeded_blob(code)
    with pytest.raises(ValueError, match="exactly k=5 nodes, got 6"):
        code.collect(nodes, range(6))


def test_layered_repair_bandwidth():
    code = LayeredCode(6, 3, 11)
    state = ingest(code, _seeded_blob(code))
    assert state.last_repair_log.records == [] and state.last_repair_bandwidth == {}
    for f in range(6):
        repaired = repair_node(state, f)
        assert repaired.nodes[f] == state.nodes[f]
        # one record per helper, and the bandwidth is read off the records
        helpers = [j for j in range(6) if j != f]
        assert [j for j, _ in repaired.last_repair_log.records] == helpers
        assert repaired.last_repair_bandwidth == dict.fromkeys(helpers, code.beta)


def test_concat_collect_and_repair():
    code = build_concat(6, 4, 3, 7)
    state = ingest(code, _seeded_blob(code, 3))
    assert collect(state, (1, 3, 5)) == state.blob
    repaired = repair_node(state, 2)
    assert repaired.nodes[2] == state.nodes[2]
    assert set(repaired.last_repair_bandwidth.values()) == {code.layout.beta}


def test_ingest_validates_length():
    code = LayeredCode(5, 2, 7)
    with pytest.raises(ValueError):
        ingest(code, [0] * (code.M - 1))


def test_persistence_roundtrip(tmp_path):
    for code in (LayeredCode(6, 3, 11), build_concat(6, 4, 3, 7)):
        state = ingest(code, _seeded_blob(code, 5))
        path = str(tmp_path / f"store_{code.F.q}")
        save_state(state, path)
        back = load_state(path)
        assert back.blob == state.blob
        assert back.nodes == state.nodes
        # the reloaded code re-encodes to the same node arrays
        assert back.code.encode(back.blob) == state.nodes


def test_store_uses_whole_bytes_per_symbol(tmp_path):
    code = LayeredCode(6, 3, 11)
    state = ingest(code, _seeded_blob(code))
    path = str(tmp_path / "store")
    save_state(state, path)
    assert os.path.getsize(os.path.join(path, "node_0.bin")) == code.alpha
    with open(os.path.join(path, "manifest.json")) as fh:
        assert json.load(fh)["symbol_bytes"] == 1


def test_store_at_a_wider_width_is_refused(tmp_path, monkeypatch):
    # a store holds its symbols in the least whole number of bytes; one
    # written 4 bytes wide, every digest consistent, does not load
    code = build_concat(6, 4, 3, 7)
    state = ingest(code, _seeded_blob(code, 3))
    path = str(tmp_path / "store")
    monkeypatch.setattr(storesim, "_symbol_bytes", lambda q: 4)
    save_state(state, path)
    monkeypatch.undo()
    assert os.path.getsize(os.path.join(path, "node_0.bin")) == 4 * code.alpha
    with pytest.raises(ValueError, match="symbol_bytes=4 differs from the code's symbol_bytes=1"):
        load_state(path)


def test_persistence_detects_tampering(tmp_path):
    code = LayeredCode(5, 2, 7)
    state = ingest(code, _seeded_blob(code))
    path = str(tmp_path / "store")
    save_state(state, path)
    with open(os.path.join(path, "node_0.bin"), "r+b") as fh:
        byte = fh.read(1)
        fh.seek(0)
        fh.write(bytes([byte[0] ^ 1]))
    with pytest.raises(ValueError):
        load_state(path)


def _edit_manifest(path, edit):
    with open(os.path.join(path, "manifest.json")) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(os.path.join(path, "manifest.json"), "w") as fh:
        json.dump(doc, fh)


def test_load_rejects_node_symbols_outside_the_field(tmp_path):
    code = LayeredCode(6, 3, 11)
    state = ingest(code, _seeded_blob(code))
    path = str(tmp_path / "store")
    save_state(state, path)
    assert max(map(max, state.nodes)) >= 7

    # a manifest for GF(7) over the untouched node files: the read of
    # the first node holding a symbol >= 7 refuses it, before blob_digest
    _edit_manifest(path, lambda doc: doc["code"].update(q=7))
    with pytest.raises(ValueError, match=r"node \d holds a symbol outside GF\(7\)"):
        load_state(path)


def test_load_rejects_wrong_symbol_width(tmp_path):
    code = LayeredCode(6, 3, 11)
    state = ingest(code, _seeded_blob(code))
    path = str(tmp_path / "store")
    save_state(state, path)
    _edit_manifest(path, lambda doc: doc.update(symbol_bytes=2))
    with pytest.raises(ValueError, match="symbol_bytes=2 differs from the code's symbol_bytes=1"):
        load_state(path)


@pytest.mark.parametrize("q, width", [
    (11, "1"), (11, 1.0), (11, 0), (11, -1), (11, None),
    (11, True),  # JSON true, a bool that equals 1
    (257, 1),    # narrower than a symbol of GF(257)
], ids=repr)
def test_load_rejects_a_symbol_width_that_cannot_hold_a_symbol(tmp_path, q, width):
    code = LayeredCode(4, 2, q)
    path = str(tmp_path / "store")
    save_state(ingest(code, _seeded_blob(code)), path)
    _edit_manifest(path, lambda doc: doc.update(symbol_bytes=width))
    with pytest.raises(ValueError, match=re.escape(f"symbol_bytes={width!r} differs from the code's")):
        load_state(path)


@pytest.mark.parametrize("wrong", [lambda x: 3, lambda x: x + 1, float, str, bool],
                         ids=["3", "one more", "float", "str", "bool"])
@pytest.mark.parametrize("key", ["alpha", "M"])
def test_load_rejects_an_alpha_or_M_that_is_not_the_codes(tmp_path, key, wrong):
    code = build_concat(6, 4, 3, 7)
    path = str(tmp_path / "store")
    save_state(ingest(code, _seeded_blob(code)), path)
    _edit_manifest(path, lambda doc: doc.update({key: wrong(doc[key])}))
    with pytest.raises(ValueError, match=f"manifest {key}=.* differs from the code's {key}="):
        load_state(path)


def test_loads_share_the_live_code_of_their_parameters(tmp_path):
    code = build_concat(6, 4, 3, 7)
    state = ingest(code, _seeded_blob(code, 2))
    path = str(tmp_path / "store")
    save_state(state, path)
    first, second = load_state(path), load_state(path)
    assert first.code is second.code is code
    for back in (first, second):
        assert back.nodes == state.nodes and back.blob == state.blob
    assert code_from_manifest(CASCADE_643) is code


def test_build_concat_builds_every_time():
    assert build_concat(6, 4, 3, 7) is not build_concat(6, 4, 3, 7)


def test_shared_codes_keep_no_code_alive(tmp_path):
    code = build_concat(6, 4, 3, 7)
    path = str(tmp_path / "store")
    save_state(ingest(code, _seeded_blob(code)), path)
    back = load_state(path)
    assert back.code is code
    ref = weakref.ref(code)
    del code, back
    gc.collect()
    assert ref() is None


def test_manifest_describes_code(tmp_path):
    code = build_concat(6, 4, 3, 7)
    state = ingest(code, _seeded_blob(code))
    path = str(tmp_path / "store")
    save_state(state, path)
    with open(os.path.join(path, "manifest.json")) as fh:
        doc = json.load(fh)
    assert doc["code"] == {"family": "concat", "n": 6, "v": 4, "k": 3,
                           "q": 7, "scenario": "2-1"}
    rebuilt = code_from_manifest(doc["code"])
    assert rebuilt.M == code.M
    with pytest.raises(ValueError):
        code_from_manifest({"family": "mystery"})
    # a code is built for the cascade only, so a store naming another
    # scenario is rejected
    with pytest.raises(ValueError, match="'scenario': '1-1'} differs from the code's own .*'scenario': '2-1'"):
        code_from_manifest(dict(doc["code"], scenario="1-1"))


def test_node_width_checked():
    code = LayeredCode(5, 2, 7)
    nodes = code.encode(_seeded_blob(code))
    nodes[0] = nodes[0][:-1]
    with pytest.raises(ValueError):
        StorageState(code, _seeded_blob(code), nodes)


def test_manifest_without_blob_digest_rejected(tmp_path):
    code = LayeredCode(6, 3, 11)
    state = ingest(code, _seeded_blob(code))
    path = str(tmp_path / "store")
    save_state(state, path)
    _edit_manifest(path, lambda doc: doc.pop("blob_digest"))
    with pytest.raises(ValueError, match="blob_digest"):
        load_state(path)


def test_layered_manifest_relabeled_concat_rejected(tmp_path):
    code = LayeredCode(6, 3, 11)
    state = ingest(code, _seeded_blob(code))
    path = str(tmp_path / "store")
    save_state(state, path)
    _edit_manifest(path, lambda doc: doc["code"].update(family="concat"))
    with pytest.raises(ValueError, match="'k'"):
        load_state(path)



def test_layered_shape_from_build_concat_persists_as_layered(tmp_path):
    # build_concat with k = n-1 is the pure layered code, so its store
    # names the layered family and loads back as that code
    code = build_concat(6, 3, 5, 11)
    state = ingest(code, _seeded_blob(code, 4))
    path = str(tmp_path / "store")
    save_state(state, path)
    with open(os.path.join(path, "manifest.json")) as fh:
        assert json.load(fh)["code"] == {"family": "layered", "n": 6, "v": 3, "q": 11}
    back = load_state(path)
    assert back.nodes == state.nodes == LayeredCode(6, 3, 11).encode(state.blob)
    # a concat manifest naming that shape is refused, typed
    _edit_manifest(path, lambda doc: doc["code"].update(
        family="concat", k=5, scenario=""))
    with pytest.raises(ValueError, match="'k': 5, 'scenario': ''} differs from the code's own {'family': 'layered'"):
        load_state(path)


CASCADE_643 = {"family": "concat", "n": 6, "v": 4, "k": 3, "q": 7, "scenario": "2-1"}
LAYERED_63 = {"family": "layered", "n": 6, "v": 3, "q": 11}


@pytest.mark.parametrize("desc, match", [
    (dict(CASCADE_643, k="3"), "k='3' is not an integer"),
    (dict(CASCADE_643, k=3.0), "k=3.0 is not an integer"),
    (dict(CASCADE_643, n=6.0), "n=6.0 is not an integer"),
    (dict(CASCADE_643, v=None), "v=None is not an integer"),
    (dict(CASCADE_643, q=7.0), "field order 7.0 is not an integer"),
    # a layered description has no k, and n-1 is never taken of a non-int n
    (dict(LAYERED_63, n=6.0), "n=6.0 is not an integer"),
    (dict(LAYERED_63, n="6"), "n='6' is not an integer"),
    (dict(LAYERED_63, n=None), "n=None is not an integer"),
    (dict(LAYERED_63, n=True), "n=True is not an integer"),
    (dict(LAYERED_63, v=[3]), "v=[3] is not an integer"),
    (dict(LAYERED_63, q=11.0), "field order 11.0 is not an integer"),
    (dict(LAYERED_63, q=True), "field order True is not an integer"),
    (dict(CASCADE_643, v=True), "v=True is not an integer"),
    # a key the code's own description lacks
    (dict(LAYERED_63, k=5), "differs from the code's own"),
    (dict(CASCADE_643, extra=0), "differs from the code's own"),
], ids=repr)
def test_manifest_shape_that_is_not_ints_rejected(tmp_path, desc, match):
    # the code of the well-formed description is live, so a lookup made
    # before the checks (q=7.0 hashes like 7) would find it
    code = build_concat(6, 4, 3, 7) if desc["family"] == "concat" else build_concat(6, 3, 5, 11)
    with pytest.raises(ValueError, match=re.escape(match)):
        code_from_manifest(desc)
    path = str(tmp_path / "store")
    save_state(ingest(code, _seeded_blob(code)), path)
    _edit_manifest(path, lambda doc: doc.update(code=desc))
    with pytest.raises(ValueError, match=re.escape(match)):
        load_state(path)


class _DyingFile:
    """A file open for writing whose first write stores half the bytes
    and then fails, as if the process died mid-write."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError("simulated crash")


# a save of LayeredCode(6, 3, 11) writes 6 node files and the manifest's
# temporary file, replaces the manifest, then deletes the old node files
CRASH_POINTS = [("write", j) for j in range(7)] + [("replace", 0), ("remove", 0)]


@pytest.mark.parametrize("saves_before", [1, 2])
@pytest.mark.parametrize("point", CRASH_POINTS)
def test_interrupted_save_keeps_old_state(tmp_path, monkeypatch, point,
                                          saves_before):
    code = LayeredCode(6, 3, 11)
    old = ingest(code, _seeded_blob(code, 1))
    new = ingest(code, _seeded_blob(code, 2))
    path = str(tmp_path / "store")
    for _ in range(saves_before):  # the old state in either set of names
        save_state(old, path)
    kind, at = point
    writes = []

    def dying_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        if "w" in mode:
            writes.append(file)
            if kind == "write" and len(writes) == at + 1:
                return _DyingFile(fh)
        return fh

    def dying(*args):
        raise OSError("simulated crash")

    monkeypatch.setattr(storesim, "open", dying_open, raising=False)
    if kind != "write":
        monkeypatch.setattr(os, kind, dying)
    with pytest.raises(OSError, match="simulated crash"):
        save_state(new, path)
    monkeypatch.undo()
    back = load_state(path)
    expected = new if kind == "remove" else old
    assert back.blob == expected.blob and back.nodes == expected.nodes
    # the next save goes through and leaves only the files it lists
    save_state(new, path)
    back = load_state(path)
    assert back.blob == new.blob and back.nodes == new.nodes
    with open(os.path.join(path, "manifest.json")) as fh:
        files = json.load(fh)["node_files"]
    assert sorted(os.listdir(path)) == sorted(files + ["manifest.json"])


def test_save_after_a_live_node_file_was_lost(tmp_path):
    # the next save writes the other set of names, and deleting the old
    # set skips the file that is already gone
    code = LayeredCode(6, 3, 11)
    state = ingest(code, _seeded_blob(code, 3))
    path = str(tmp_path / "store")
    save_state(state, path)
    with open(os.path.join(path, "manifest.json")) as fh:
        lost = json.load(fh)["node_files"][2]
    os.remove(os.path.join(path, lost))
    save_state(state, path)
    back = load_state(path)
    assert back.blob == state.blob and back.nodes == state.nodes
    with open(os.path.join(path, "manifest.json")) as fh:
        files = json.load(fh)["node_files"]
    assert sorted(os.listdir(path)) == sorted(files + ["manifest.json"])


def test_load_rejects_unexpected_node_files(tmp_path):
    code = LayeredCode(6, 3, 11)
    state = ingest(code, _seeded_blob(code))
    path = str(tmp_path / "store")
    save_state(state, path)
    _edit_manifest(path, lambda doc: doc["node_files"].pop())
    with pytest.raises(ValueError, match="node files"):
        load_state(path)
    _edit_manifest(path, lambda doc: doc.pop("node_files"))
    with pytest.raises(ValueError, match="node_files"):
        load_state(path)


def test_save_of_a_blob_the_nodes_do_not_store_keeps_the_old_store(tmp_path):
    # a state whose blob is not the payload of its nodes would save a
    # blob_digest no load accepts, after deleting the good store's files
    code = build_concat(8, 5, 4, 11)
    old = ingest(code, _seeded_blob(code, 1))
    path = str(tmp_path / "store")
    save_state(old, path)
    bad = StorageState(code, [1] * code.M, code.encode([2] * code.M))
    with pytest.raises(ValueError, match="the blob is not the payload the node arrays store"):
        save_state(bad, path)
    back = load_state(path)
    assert back.blob == old.blob and back.nodes == old.nodes


def test_save_of_a_short_node_list_keeps_the_old_store(tmp_path):
    # a state of n-1 node arrays is refused before save_state could
    # write n-1 files and delete the n the store lists
    code = LayeredCode(6, 3, 11)
    old = ingest(code, _seeded_blob(code, 1))
    path = str(tmp_path / "store")
    save_state(old, path)
    new = ingest(code, _seeded_blob(code, 2))
    with pytest.raises(ValueError, match="5 node arrays, expected n=6"):
        save_state(StorageState(code, new.blob, new.nodes[:-1]), path)
    back = load_state(path)
    assert back.blob == old.blob and back.nodes == old.nodes


@pytest.mark.parametrize("code_name, shape", [
    ("concat", {"n": 10**30}), ("layered", {"n": 10**30}),
    # v = k+1 <= n-k names no code, and C(n-k, v) has millions of digits
    ("concat", {"n": 10**9, "v": 10**6 + 1, "k": 10**6})], ids=repr)
def test_load_of_a_huge_shape_is_refused_typed(tmp_path, code_name, shape):
    code = build_concat(6, 4, 3, 7) if code_name == "concat" else LayeredCode(6, 3, 11)
    path = str(tmp_path / "store")
    save_state(ingest(code, _seeded_blob(code)), path)
    _edit_manifest(path, lambda doc: doc["code"].update(shape))
    t0 = time.perf_counter()
    with pytest.raises(ValueError):
        load_state(path)
    assert time.perf_counter() - t0 < 1


HUGE = {"family": "concat", "n": 30, "v": 16, "k": 15, "q": 31, "scenario": "2-1"}


@pytest.mark.parametrize("files", ["the store's", "n names"])
def test_load_of_a_huge_code_is_refused_unbuilt(tmp_path, files):
    # (30,16,15,31) has alpha = 15^15, about 4.4e17, and its build ran
    # for 20 s under a 1 GB limit until it was killed; the node file
    # list, or with n names the node file sizes, refuse it unbuilt
    code = build_concat(6, 4, 3, 7)
    path = str(tmp_path / "store")
    save_state(ingest(code, _seeded_blob(code)), path)
    names = [f"node_{i}.bin" for i in range(HUGE["n"])]

    def edit(doc):
        doc["code"] = HUGE
        if files == "n names":
            doc.update(alpha=15 ** 15, M=15 * 15 ** 15, node_files=names)

    _edit_manifest(path, edit)
    for name in names[code.n:]:
        with open(os.path.join(path, name), "wb") as fh:
            fh.write(bytes(code.alpha))
    match = "unexpected node files" if files == "the store's" else "is not alpha.symbol_bytes"
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=match):
        load_state(path)
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("shape", END_TO_END_SHAPES + [(n, v, n - 1, 11) for n, v in
                                                       [(4, 2), (5, 1), (6, 3), (8, 5)]],
                         ids=repr)
def test_closed_form_alpha_and_M_are_the_codes(shape):
    n, v, k, q = shape
    code = build_concat(n, v, k, q)
    assert storesim._sizes(n, v, k) == (code.alpha, code.M)


@pytest.mark.parametrize("bad", ["q", "-1", "None", "True"])
@pytest.mark.parametrize("code_name", ["concat", "layered"])
def test_reads_reject_symbols_outside_the_field(code_name, bad):
    # a symbol read from a node is checked before it is used: a collect
    # from A holding node 0 rejects a bad value at any offset of node 0,
    # and a repair of node 1 rejects it exactly at the beta offsets it
    # reads from helper 0, and returns the right column at the others
    code = build_concat(6, 4, 3, 7) if code_name == "concat" else LayeredCode(6, 3, 11)
    value = {"q": code.F.q, "-1": -1, "None": None, "True": True}[bad]
    blob = _seeded_blob(code)
    nodes = code.encode(blob)
    A = tuple(range(code.k))
    rejected = 0
    for s in range(code.alpha):
        damaged = [list(row) for row in nodes]
        damaged[0][s] = value
        with pytest.raises(ValueError, match="node 0 holds a symbol outside GF"):
            code.collect(damaged, A)
        try:
            column, _ = code.repair(damaged, 1)
        except ValueError as exc:
            assert "node 0 holds a symbol outside GF" in str(exc)
            rejected += 1
        else:
            assert column == nodes[1]
    assert rejected == code.beta


@pytest.mark.parametrize("q, match", [(2**61 - 1, "not below 2\\^31"),
                                      (2**30, "above 2\\^10")])
def test_load_of_a_field_too_large_to_build_is_refused_at_once(tmp_path, q, match):
    # a layered store at n = 4, v = 2 passes every check made before a
    # build (alpha = 3 symbols of symbol_bytes = 8 or 4 per node file);
    # then its field is refused before any trial division or table
    width = storesim._symbol_bytes(q)
    files, data = [f"node_{i}.bin" for i in range(4)], bytes(3 * width)
    for name in files:
        (tmp_path / name).write_bytes(data)
    (tmp_path / "manifest.json").write_text(json.dumps({
        "code": {"family": "layered", "n": 4, "v": 2, "q": q}, "alpha": 3, "M": 6,
        "symbol_bytes": width, "node_files": files,
        "digests": {name: hashlib.sha256(data).hexdigest() for name in files},
        "blob_digest": hashlib.sha256(bytes(6 * width)).hexdigest()}))
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=match):
        load_state(str(tmp_path))
    assert time.perf_counter() - t0 < 1


def test_ingest_rejects_a_bool_symbol():
    # reads and loads take only ints as symbols, so a write does too:
    # otherwise the stored state could not be collected back
    code = LayeredCode(5, 2, 7)
    blob = _seeded_blob(code)
    blob[0] = True
    with pytest.raises(ValueError, match="payload holds a symbol outside GF"):
        ingest(code, blob)


def test_loads_share_a_live_layered_code(tmp_path):
    code = LayeredCode(6, 3, 11)
    path = str(tmp_path / "store")
    save_state(ingest(code, _seeded_blob(code)), path)
    assert load_state(path).code is code


# sha256 of every file of a first save of the seed-0 blob: any drift of
# the stored format, node files or manifest text, fails here
SAVED_FILES = {
    "(8,5,4,11)": {
        "manifest.json": "8e8e0f9425d1d2eff7e4e7c9f87f42bdb001e24ff43b2d6c94066531b977f9f0",
        "node_0.bin": "118514cf860752afd3c8a392d592cf0c862245d54f80543898650f1dfd96e4b9",
        "node_1.bin": "b2e81259a7b59c01275b7b4a4db558ccf46b2472ac3a67f723119fd648d10ac2",
        "node_2.bin": "19f1861a478fda90fd1bf8ee1ec7c6ba8f111739acca588b4d674e2c9b45115c",
        "node_3.bin": "30795895a0b28fcaf51e5886fed150c85ac8167d4fa0fa38337e6bb71f21e3fe",
        "node_4.bin": "1be126298accf11d85f6a02583660ff2a052ae9e695e897c723080b4d56e704f",
        "node_5.bin": "aea5bcde407b18ecbc61de93ff59d4b184b59d2a681daef6de01aa85b14af349",
        "node_6.bin": "70f4ad0ff512b1345f24533b7cb04a895dbea4d86d22c51ec0ca1cd93e8535b6",
        "node_7.bin": "d533c3ede1b12e6d3504c7cc5e481d8c166e7595179d5077fab18fce1b1e7ef9",
    },
    "LayeredCode(6,3,11)": {
        "manifest.json": "9ba65883a24c8d862db5021583f2b214dd6e1411a477d3ff7babe18f69dcda55",
        "node_0.bin": "929830adec5a8fee0fed3017d7f4baf455ba106a58148f4dffabe1a6ee87674a",
        "node_1.bin": "18513fcec43ff616cf9127f198884ec4bb3a0d6f2838de4865d10887e3dfba84",
        "node_2.bin": "ec1df483849d84276f5436bdc1356cf8432bd0a0787a4aa830a84a56845ae67b",
        "node_3.bin": "be5ffad29e0665c7706e29206781cb7137d0760a9007d1138f3665375281840b",
        "node_4.bin": "da156b88f23f61883d290dbc356e65aa57ca69ead0fad22b582a02ca83077e24",
        "node_5.bin": "88bc1c9983c54eb73dec6b7ea6cb72f04f46f83ab580b613b4c0064c5df69cc5",
    },
}
PINNED_CODES = {"(8,5,4,11)": lambda: build_concat(8, 5, 4, 11),
                "LayeredCode(6,3,11)": lambda: LayeredCode(6, 3, 11)}


def _saved(tmp_path, name):
    code = PINNED_CODES[name]()
    path = str(tmp_path / "store")
    save_state(ingest(code, _seeded_blob(code)), path)
    return path


@pytest.mark.parametrize("name", sorted(SAVED_FILES))
def test_saved_files_keep_their_bytes(tmp_path, name):
    path = _saved(tmp_path, name)
    got = {}
    for f in sorted(os.listdir(path)):
        with open(os.path.join(path, f), "rb") as fh:
            got[f] = hashlib.sha256(fh.read()).hexdigest()
    assert got == SAVED_FILES[name]


# sha256 of the manifest.json of the same saves when a manifest also
# held the blob, as a "blob" list spliced in after blob_digest
BLOB_COPY_MANIFESTS = {
    "(8,5,4,11)": "601d9c6f004605c9363bb44ddbf1c1b99d4dc5515b9a7742019464ae084f3c7f",
    "LayeredCode(6,3,11)": "1c271ba9869d189308fe02db0159d844499286404a6e3cd65b531b1c2f9e13b9",
}


@pytest.mark.parametrize("name", sorted(BLOB_COPY_MANIFESTS))
def test_a_store_with_a_blob_copy_still_loads(tmp_path, name):
    # the manifest is rebuilt byte for byte as such a save wrote it; the
    # load ignores the copy and reads the same blob off the node files
    path = _saved(tmp_path, name)
    manifest = os.path.join(path, "manifest.json")
    with open(manifest) as fh:
        head = json.dumps(json.load(fh), indent=2)
    blob = _seeded_blob(PINNED_CODES[name]())
    text = head[:-2] + ',\n  "blob": [\n    ' + ",\n    ".join(map(str, blob)) + "\n  ]\n}"
    assert hashlib.sha256(text.encode()).hexdigest() == BLOB_COPY_MANIFESTS[name]
    with open(manifest, "w") as fh:
        fh.write(text)
    assert load_state(path).blob == json.loads(text)["blob"] == blob
    # ignored, not checked: a copy that is no blob at all loads the same
    _edit_manifest(path, lambda doc: doc.update(blob="0123"))
    assert load_state(path).blob == blob


def test_a_load_makes_no_decode(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("erasure_decode called")

    for code in (build_concat(8, 5, 4, 11), LayeredCode(6, 3, 11)):
        state = ingest(code, _seeded_blob(code, 4))
        path = str(tmp_path / f"store_{code.k}")
        save_state(state, path)
        with monkeypatch.context() as patch:
            patch.setattr(concat, "erasure_decode", refuse)
            back = load_state(path)
            if code.k < code.n - 1:  # the cascade's collect does decode
                with pytest.raises(AssertionError, match="erasure_decode called"):
                    code.collect(state.nodes, range(code.n - code.k, code.n))
        assert back.blob == state.blob and back.nodes == state.nodes


def test_load_refuses_a_blob_its_digest_does_not_name(tmp_path):
    code = LayeredCode(6, 3, 11)
    path = str(tmp_path / "store")
    save_state(ingest(code, _seeded_blob(code)), path)
    with open(os.path.join(path, "manifest.json")) as fh:
        saved = json.load(fh)
    _edit_manifest(path, lambda doc: doc.update(blob_digest="0" * 64))
    with pytest.raises(ValueError, match="digest mismatch for the blob the node files hold"):
        load_state(path)

    # node 0 is the first node of each of its layers, so every symbol it
    # holds is payload: a changed one, with its file digest re-taken, is
    # a blob that blob_digest does not name
    with open(os.path.join(path, "node_0.bin"), "r+b") as fh:
        data = bytearray(fh.read())
        data[0] = (data[0] + 1) % 11
        fh.seek(0)
        fh.write(data)
    saved["digests"]["node_0.bin"] = hashlib.sha256(data).hexdigest()
    _edit_manifest(path, lambda doc: doc.update(saved))
    with pytest.raises(ValueError, match="digest mismatch for the blob the node files hold"):
        load_state(path)


@pytest.mark.parametrize("name", sorted(SAVED_FILES))
def test_manifest_text_is_json_dump_with_indent_2(tmp_path, name):
    with open(os.path.join(_saved(tmp_path, name), "manifest.json")) as fh:
        text = fh.read()
    assert text == json.dumps(json.loads(text), indent=2)


def test_two_byte_store_packs_as_the_reference(tmp_path):
    code = LayeredCode(5, 3, 257)
    state = ingest(code, _seeded_blob(code, 17))
    # 256, GF(257)'s one symbol with a nonzero high byte, is in the blob and a node
    assert 256 in state.blob and 256 in map(max, state.nodes)
    path = str(tmp_path / "store")
    save_state(state, path)
    with open(os.path.join(path, "manifest.json")) as fh:
        doc = json.load(fh)
    assert doc["symbol_bytes"] == 2
    assert doc["blob_digest"] == hashlib.sha256(reference.pack(state.blob, 2)).hexdigest()
    for name, row in zip(doc["node_files"], state.nodes):
        with open(os.path.join(path, name), "rb") as fh:
            assert fh.read() == reference.pack(row, 2)
    back = load_state(path)
    assert back.blob == state.blob and back.nodes == state.nodes


# one of each kind of non-symbol: truncated by int(), in [q, 256) so it
# fits a byte, an int subclass, and no number at all
NOT_SYMBOLS = [3.7, 200, True, None]


@pytest.mark.parametrize("where", ["node", "blob"])
@pytest.mark.parametrize("bad", NOT_SYMBOLS, ids=repr)
def test_save_refuses_a_symbol_outside_the_field(tmp_path, bad, where):
    code = LayeredCode(6, 3, 11)
    old = ingest(code, _seeded_blob(code, 1))
    new = ingest(code, _seeded_blob(code, 2))
    path = str(tmp_path / "store")
    save_state(old, path)
    if where == "node":
        new.nodes[2][3], label = bad, "node 2"
    else:
        new.blob[3], label = bad, "blob"
    with pytest.raises(ValueError, match=rf"{label} holds a symbol outside GF\(11\): {bad!r}"):
        save_state(new, path)
    back = load_state(path)
    assert back.blob == old.blob and back.nodes == old.nodes


def test_save_refuses_a_blob_of_the_wrong_length(tmp_path):
    code = LayeredCode(6, 3, 11)
    state = ingest(code, _seeded_blob(code))
    state.blob.pop()
    with pytest.raises(ValueError, match="blob holds 39 symbols, expected 40"):
        save_state(state, str(tmp_path / "store"))
    assert not os.path.exists(tmp_path / "store")
