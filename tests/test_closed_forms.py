"""A closed-form witness for the multipliers the oracle reads from the ring.

The oracle turns each coefficient of an operator into numbers through
``_Batch.weights``, from the ``ZRat`` data the exact engine built.  Here the
order-0 weights of every coefficient of D_r, D_phi, H_k and X_k, drawn as
the oracle draws its columns, are compared at every image angle
sigma phi + n pi/k with the paper's multipliers written in numpy: no
``trig`` and no ring operation runs on the expected side.
"""

import math

import numpy as np
import pytest

from dunklops.builders import MUTATIONS, OperatorSet
from dunklops.coeffring import ZRat
from dunklops.cyclofield import ctx_new
from dunklops.oracle import _Batch

NAMES = ("Dr", "Dphi", "Hk", "Xk")
TRIALS = 12
TOL = 1e-12


def built(k, mutation):
    """The four operators of one (k, mutation), from its operator set."""
    ops = OperatorSet(ctx_new(k), mutation)
    return {name: getattr(ops, name) for name in NAMES}


def paper_multipliers(k, mutation, batch):
    """name -> (p, q, i, e) -> r-power -> the terms of that multiplier, each
    an array over (sign, image, trial), at the batch's a, b and w2."""
    two_k = 2 * k
    sigma = np.array([1.0, -1.0])[:, None, None]
    x = sigma * batch.phi + (np.arange(two_k) * (math.pi / k))[None, :, None]
    one = np.ones_like(x)
    a, b, w2 = batch.a, batch.b, batch.w2

    upper = k - 1 if mutation == "dr-drop" else k
    dr = {(1, 0, 0, 0): {0: [one]}}
    for i in range(upper):
        dr[0, 0, (2 * i + 1) % two_k, 1] = {-1: [-a * one]}
        dr[0, 0, 2 * i, 1] = {-1: [-b * one]}

    dphi = {(0, 1, 0, 0): {0: [one]}}
    if k % 2:
        for i in range(k):
            dphi[0, 0, (k + 2 * i) % two_k, 1] = {
                0: [a * np.tan(x + i * math.pi / k)]}
    else:
        tan_k, sec_k = np.tan(k * x), 1.0 / np.cos(k * x)
        for i in range(k // 2):
            dphi[0, 0, (two_k - 1 + 4 * i) % two_k, 1] = {
                0: [a * tan_k, a * sec_k]}
            dphi[0, 0, (1 + 4 * i) % two_k, 1] = {0: [a * tan_k, -a * sec_k]}
    for i in range(k):
        cot = 1.0 / np.tan(x + i * math.pi / k)
        shifted = i == 0 and mutation == "b-shift"
        dphi[0, 0, 2 * i, 1] = {0: [-b * cot] + ([-cot] if shifted else [])}

    sec2, csc2 = 1.0 / np.cos(k * x) ** 2, 1.0 / np.sin(k * x) ** 2
    V = [k * k * a * a * sec2, -k * k * a * sec2,
         k * k * b * b * csc2, -k * k * b * csc2]
    xk = {(0, 2, 0, 0): {0: [-one]}, (0, 0, 0, 0): {0: V}}
    hk = {(2, 0, 0, 0): {0: [-one]}, (1, 0, 0, 0): {-1: [-one]},
          (0, 2, 0, 0): {-2: [-one]}, (0, 0, 0, 0): {-2: V, 2: [w2 * one]}}
    return {"Dr": dr, "Dphi": dphi, "Hk": hk, "Xk": xk}


def mismatches(k, mutation, ops, seed):
    """Where the oracle's order-0 weights of ``ops`` leave the paper's
    multipliers by more than TOL of the terms' summed magnitude."""
    batch = _Batch.draw(np.random.default_rng(seed), TRIALS, ctx_new(k), 0,
                        invariant=False)
    want = paper_multipliers(k, mutation, batch)
    out = []
    for name, op in ops.items():
        if set(op.terms) != set(want[name]):
            out.append((name, "keys", sorted(set(op.terms)
                                            ^ set(want[name]))))
            continue
        for key, coeff in op.terms.items():
            got = batch.weights(coeff, 1)
            if set(got) != set(want[name][key]):
                out.append((name, key, "r-powers", sorted(got)))
                continue
            for m, w in got.items():
                terms = want[name][key][m]
                value = sum(terms)
                scale = sum(np.abs(t) for t in terms)
                w = w[:, :, 0] if np.ndim(w) == 4 else w
                dev = np.max(np.abs(np.broadcast_to(w, value.shape) - value)
                             / scale)
                if not dev <= TOL:
                    out.append((name, key, m, float(dev)))
    return out


@pytest.mark.parametrize("mutation", [None, *MUTATIONS])
def test_oracle_weights_are_the_papers_multipliers(mutation):
    for k in range(1, 9):
        ops = built(k, mutation)
        assert mismatches(k, mutation, ops, seed=k) == [], (k, mutation)


_ROTATE, _ADD = ZRat.rotate_n, ZRat._add

# ring defects, each seeded only while the operator set is built, and the k
# at which it reaches D_r, D_phi, H_k or X_k: k = 1 has no rotation, and
# only the even-k D_phi subtracts two functions of phi (tan k phi - sec k phi)
_DEFECTS = {
    "a rotation dropped": ("rotate_n", lambda self, n: _ROTATE(self, n - 1),
                           range(2, 9)),
    "negation a no-op": ("__neg__", lambda self: self, range(1, 9)),
    "a sum that subtracts": ("_add", lambda self, o: _ADD(self, -o),
                             range(2, 9, 2)),
}


@pytest.mark.parametrize("defect", _DEFECTS)
def test_ring_defects_in_the_built_operators_are_caught(monkeypatch, defect):
    name, broken, reached = _DEFECTS[defect]
    caught = []
    for k in range(1, 9):
        ctx = ctx_new(k)
        with monkeypatch.context() as patch:
            patch.setattr(ZRat, name, broken)
            patch.setattr(ctx, "trig_cache", {})
            ops = built(k, None)
        if mismatches(k, None, ops, seed=k):
            caught.append(k)
    assert caught == list(reached)
