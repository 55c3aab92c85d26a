"""exact.int_dtype, the one int64-or-Python-int rule, at its boundary in
each caller: a bound at 2^63 keeps int64, one past it gives object, and
either way the result equals the Python-int (object dtype) reference."""

from fractions import Fraction

import numpy as np
import pytest

from grouprelax import ILPInstance, IntMatrix, SPParams, feasible_coset
from grouprelax import kernel, relax, search, spdiag, walks
from grouprelax.exact import int_dtype
from tests import spdiag_oracle
from tests.conftest import stub_grd


def test_int_dtype_boundary():
    assert int_dtype(0) is np.int64
    assert int_dtype(2**63) is np.int64
    assert int_dtype(2**63 + 1) is object


def widths(modules, fn, *args):
    """(fn(*args), fn(*args) with every width object, the widths chosen
    by int_dtype in the first call); modules, one or a tuple, are those
    whose int_dtype fn reaches."""
    chosen = []

    def record(bound):
        chosen.append(int_dtype(bound))
        return chosen[-1]
    modules = modules if isinstance(modules, tuple) else (modules,)
    with pytest.MonkeyPatch.context() as mp:
        for module in modules:
            mp.setattr(module, "int_dtype", record)
        result = fn(*args)
        for module in modules:
            mp.setattr(module, "int_dtype", lambda bound: object)
        return result, fn(*args), chosen


@pytest.mark.parametrize("r_max, dtype", [(3037000493, np.int64), (3037000507, object)])
def test_compress_kernel_width(r_max, dtype):
    # primes on either side of 2^31.5; the row's entries are large, so
    # that scaling it to make the pivot 1 forms products of two residues
    # near r_max^2 (at r_max = 2^32 - 5 int64 gets them wrong)
    a, b, c = 1234567891, r_max - 2, r_max - 3
    grd = stub_grd([[c, a, b]], [r_max], [0])
    result, reference, chosen = widths(
        kernel, lambda grd: feasible_coset(grd, compress=True).basis, grd)
    assert chosen == [dtype] and result == reference
    t = pow(c, -1, r_max)
    assert result.generators == ((-a * t % r_max, 1, 0), (-b * t % r_max, 0, 1))


@pytest.mark.parametrize("m, dtype", [(2**62, np.int64), (2**62 + 4, object)])
def test_neighbours_width(m, dtype):
    # the coset m/4 - 1 + <3m/4>: state + generator reaches 7m/4 - 1
    spec = walks.CayleyWalkSpec(generators=((3 * m // 4,),), moduli=(m,))
    states = [((m // 4 - 1) + k * 3 * m // 4) % m for k in range(4)]
    result, reference, chosen = widths(walks, walks._neighbours, spec, [(x,) for x in states])
    assert chosen == [dtype] and np.array_equal(result, reference)
    assert result.tolist() == [[1, 3], [2, 0], [3, 1], [0, 2]]


@pytest.mark.parametrize("spread, dtype", [(2**31 - 1, np.int64), (2**31, object)])
def test_max_move_variation_width(spread, dtype):
    # 2k (max - min)^2 = 2 spread^2, at most 2^63 - 1 below the limit
    nb = np.array([[1, 1], [0, 0]])
    iv = np.array([0, spread], dtype=object)
    result, reference, chosen = widths(walks, walks.max_move_variation, iv, nb)
    assert chosen == [dtype] and result == reference == 2 * spread**2


@pytest.mark.parametrize("const, dtype", [(3, np.int64), (4, object)])
def test_sp_diagnose_costs_width(const, dtype):
    # |const + w·x| < const + 4 (2^60 - 1) + 4·2^60 + 1 = 2^63 - 3 + const
    grd = stub_grd([[1, 3]], [4], [0], cbold=[2**60 - 1, 2**60], shift=const)
    fc = feasible_coset(grd)
    result, reference, chosen = widths((relax, spdiag), spdiag.sp_diagnose, grd, fc, SPParams())
    # the costs (LinearCost.scaled_rows), then den·ftilde and its sum, both past 2^63
    assert chosen == [dtype, object, object]
    assert repr(result) == repr(reference) == repr(spdiag_oracle.sp_diagnose(grd, fc, SPParams()))


@pytest.mark.parametrize("a, dtype", [(2**62 - 1, np.int64), (2**62, object)])
def test_brute_force_ilp_width(a, dtype):
    # the row sum a·x_1 + a·x_2 over {0, 1}^2 reaches 2a, 2^63 - 2 below the limit
    inst = ILPInstance("wide", IntMatrix([[a, a]]), [2 * a], [1, 2], ["="])
    result, reference, chosen = widths(search, search.brute_force_ilp, inst, 1)
    assert chosen == [dtype, np.int64] and result == reference == (Fraction(3), [1, 1])
