import numpy as np

from morita import _kernels
from morita.semigroups import brandt, cyclic_group, symmetric_inverse_monoid


def test_assoc_witness_valid_tables():
    for S in (cyclic_group(5), brandt(cyclic_group(2), 2),
              symmetric_inverse_monoid(3)):
        assert _kernels.assoc_witness(S.table) is None


def test_cancellation_witness_semantics():
    comp = np.array([[0, 0, -1], [-1, 1, 1], [-1, -1, 2]])
    w = _kernels.left_cancellation_witness(comp)
    assert w == (0, 0, 1)
    assert _kernels.right_cancellation_witness(np.eye(3, dtype=np.int64)) is not None
    clean = np.array([[0, -1], [-1, 1]])
    assert _kernels.left_cancellation_witness(clean) is None
