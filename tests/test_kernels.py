import itertools

import numpy as np
import pytest

from glstat import builtin_kernel, custom_kernel, eval_kernel
from glstat.kernels import eval_kernel_rows


def all_builtins():
    return [
        builtin_kernel("gini_abs_diff"),
        builtin_kernel("identity"),
        builtin_kernel("min_pairwise", {"m": 3}),
        builtin_kernel("min_pairwise", {"m": 4}),
        builtin_kernel("range", {"m": 3}),
        builtin_kernel("range", {"m": 2}),
    ]


def test_catalog_examples():
    assert eval_kernel(builtin_kernel("gini_abs_diff"), [3, 1]) == 2
    assert eval_kernel(builtin_kernel("min_pairwise", {"m": 3}), [0, 1, 3]) == 1
    assert eval_kernel(builtin_kernel("range", {"m": 3}), [0, 1, 3]) == 3
    assert eval_kernel(builtin_kernel("identity"), [5.0]) == 5.0


def test_builtin_dimensions():
    assert builtin_kernel("gini_abs_diff").m == 2
    assert builtin_kernel("identity").m == 1
    assert builtin_kernel("min_pairwise", {"m": 5}).m == 5


def test_unknown_name_and_bad_m():
    with pytest.raises(ValueError):
        builtin_kernel("nope")
    with pytest.raises(ValueError):
        builtin_kernel("min_pairwise", {"m": 1})
    with pytest.raises(ValueError):
        builtin_kernel("range", {"m": 1})
    # not truncated: m = 2.5 must not run m = 2
    for name in ("min_pairwise", "range"):
        for m in (2.5, 3.0, "3", True):
            with pytest.raises(ValueError, match=f"{name} requires an "
                               f"integer m, got {m!r}"):
                builtin_kernel(name, {"m": m})
    assert builtin_kernel("range", {"m": np.int64(3)}).m == 3


def test_dimension_mismatch_and_nonfinite_rejected():
    k = builtin_kernel("gini_abs_diff")
    with pytest.raises(ValueError):
        eval_kernel(k, [1.0])
    with pytest.raises(ValueError):
        eval_kernel(k, [1.0, np.nan])
    with pytest.raises(ValueError):
        eval_kernel(k, [np.inf, 0.0])


def test_permutation_invariance_200_random_vectors():
    rng = np.random.default_rng(42)
    for k in all_builtins():
        for _ in range(200 // 6 + 1):
            args = rng.standard_normal(k.m)
            base = eval_kernel(k, args)
            for perm in itertools.permutations(args):
                assert eval_kernel(k, list(perm)) == base


def test_nonnegativity_and_diagonal_zero():
    rng = np.random.default_rng(7)
    gini = builtin_kernel("gini_abs_diff")
    for _ in range(50):
        x = rng.standard_normal()
        assert eval_kernel(gini, [x, x]) == 0.0
    for k in (builtin_kernel("range", {"m": 3}),
              builtin_kernel("min_pairwise", {"m": 3})):
        for _ in range(50):
            assert eval_kernel(k, rng.standard_normal(3)) >= 0.0


def test_lipschitz_spot_check():
    # |h(a) - h(b)| <= 2 ||a - b|| over 1e4 random pairs per kernel
    rng = np.random.default_rng(3)
    for k in all_builtins():
        a = rng.standard_normal((10_000, k.m))
        b = a + 0.1 * rng.standard_normal((10_000, k.m))
        ha = eval_kernel_rows(k, a)
        hb = eval_kernel_rows(k, b)
        dist = np.linalg.norm(a - b, axis=1)
        assert np.all(np.abs(ha - hb) <= 2.0 * dist + 1e-12)


def test_rows_evaluator_matches_scalar():
    rng = np.random.default_rng(11)
    for k in all_builtins():
        rows = rng.standard_normal((100, k.m))
        fast = eval_kernel_rows(k, rows)
        slow = np.array([eval_kernel(k, r) for r in rows])
        np.testing.assert_allclose(fast, slow, rtol=0, atol=0)


def test_custom_kernel_shape():
    k = custom_kernel("sum_abs", 2, lambda a: abs(a[0]) + abs(a[1]))
    assert eval_kernel(k, [-1, 2]) == 3
    assert k.m == 2
