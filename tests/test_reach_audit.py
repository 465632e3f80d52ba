"""Every public top-level name of src/graphcodes has a user outside the
tests, or a reason to stay on ALLOWED.

``scripts/reach_audit.py`` lists the public names that no other
``src/`` module imports, their own module does not name, and no
``perfbench/`` or ``scripts/`` file names.  A name may stay unused
outside the tests only as an import of the acceptance gate, a paper
claim named in its docstring, or ``jgc.from_json``, the reader of what
``to_json`` writes; reference definitions the tests compare against
live in ``tests/reference.py``.
So a new public name with no such user fails here until it gets a user,
a reason on ALLOWED, or goes.  The scan reads the files with ``ast`` and
runs nothing; the script is loaded by path, so the test needs no package
layout for scripts.
"""

import importlib.util
import os

AUDIT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scripts", "reach_audit.py")

GATE = "pinned by the gate"
CLAIM = "kept as paper claim"

ALLOWED = {
    "combinat.graph_params": f"{GATE}: criterion 9",
    "concat.demand_row": f"{GATE}: criterion 4",
    "concat.subgraph_code_table": f"{GATE}: criterion 4",
    "hgc.certify_hgc_infosets": f"{GATE}: criterion 8",
    "hgc.rm_equivalent": f"{GATE}: criterion 10",
    "jgc.unit_codeword": f"{CLAIM}: anchored minor vectors are codewords, unit on the ball "
                         "shell by shell, and sparse",
    "jgc.signed_dual": f"{GATE}: criterion 9",
    "jgc.aligned_dot": f"{GATE}: criterion 9",
    "jgc.signed_pairing": f"{GATE}: criterion 9",
    "jgc.from_json": "kept: the public reader of what to_json (and graphcodes construct) writes",
    "layered.classify_access": f"{GATE}: criterion 1",
    "matrix.mat_vec": f"{GATE}: criterion 9",
    "matrix.pi_signed": f"{GATE}: criterion 9",
    "matrix.compound": f"{GATE}: criterion 9",
    "rs.det_h": f"{GATE}: criterion 9",
    "rs.ProductPolyCode": f"{CLAIM}: the ball property in product-polynomial form",
    "storesim.LayeredCode": f"{GATE}: criterion 7",
}


def _audit():
    spec = importlib.util.spec_from_file_location("reach_audit", AUDIT)
    audit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(audit)
    return audit


def test_every_public_name_unused_outside_the_tests_is_allowed():
    found = _audit().unused_public_names()
    assert sorted(name for name, _ in found) == sorted(ALLOWED)
    # the names the gate pins are exactly the ones the gate imports
    assert ({name for name, gate in found if gate}
            == {name for name, why in ALLOWED.items() if why.startswith(GATE)})
