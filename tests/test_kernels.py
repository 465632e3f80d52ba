"""The benchmark's kernel probe checksums, run in the test suite.

``perfbench/kernels.py`` runs field operations over GF(11) and GF(8), 200
5x5 determinants and one 24x48 rref over GF(11) on fixed inputs, and
compares a hash of each result with a checksum pinned in that file.  It
is loaded by path, so the test needs no package layout for perfbench.
"""

import importlib.util
import os

KERNELS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "kernels.py")


def test_kernel_probe_matches_pinned_checksums():
    spec = importlib.util.spec_from_file_location("perfbench_kernels", KERNELS)
    kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernels)
    _, ok, sums = kernels.run_probe()
    assert set(ok) == {"field.q11", "field.q8", "det5", "rref"}
    assert ok == {name: True for name in ok}, sums
