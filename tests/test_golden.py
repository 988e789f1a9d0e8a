"""Every golden case (golden.py) recomputed against the committed results:
integers exactly, floats to 1e-12 relative. Bits are not compared, because
BLAS kernels and numpy's SIMD paths round differently on other CPUs; the
in-run tests keep the bit-identity invariants."""

from __future__ import annotations

import numpy as np
import pytest

from golden import CASES, PATH, compute

RTOL = 1e-12


@pytest.fixture(scope="module")
def golden():
    with np.load(PATH, allow_pickle=False) as z:
        return {name: z[name] for name in z.files}


def test_golden_file_holds_every_case(golden):
    assert {name.rsplit(".", 1)[0] for name in golden} == set(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_golden_case(name, golden, no_kept):
    record = compute(CASES[name])
    assert sorted(record) == sorted(key.rsplit(".", 1)[1] for key in golden if key.rsplit(".", 1)[0] == name)
    for key, got in record.items():
        want = golden[f"{name}.{key}"]
        assert got.shape == want.shape, key
        if want.dtype.kind == "c":
            scale = float(np.max(np.abs(want), initial=0.0))
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * scale, err_msg=key)
        else:
            np.testing.assert_array_equal(got, want, err_msg=key)
