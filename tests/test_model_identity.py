"""Pinned arrays of a fixed set of small models.

``MODEL_SHA256`` pins each model by the sha256 of the model IR's arrays
at full precision (dtype, shape and bytes of each), so a coefficient
summed in another order changes it.  ``HIGHS_SHA256`` pins, for the same
models, every argument the backend hands ``backend.milp``.  A change
that claims to leave the models as they are must keep every hash; a
change that alters a model on purpose must argue it and re-pin that
model.
"""

import hashlib

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from iabtopo import milp
from iabtopo.milp import backend
from iabtopo.problem import DiscretePower, default_power_levels

from conftest import random_small_instance, two_unit_instance

# _model_digest of each model.  These replaced a pair of text digests (the
# IR's LP dump and an exact repr of its rows) once that dump was removed;
# they were computed on the commit whose text digests they replaced.
MODEL_SHA256 = {
    ("two_unit", "throughput", "fixed"):
        "ffd10368a19e5b322ddea59a8cfbf2fd9fbe9888f3c4d34951a0eee9cbe740fe",
    ("two_unit", "throughput", "one_free"):
        "07d13c7a771b03d3d0829c144ec45728bc2d3d66342f6d7cd59f5bd1855e5c1b",
    ("two_unit", "throughput", "exact"):
        "32b0cd0cce6a2f9a7f999fb532bd68903e32b7dc2a35e15bace4042d94bca8ed",
    ("two_unit", "energy", "fixed"):
        "b6fe0d6ff9352ac61d94e088bc0284b1d42e096fba072c7c254ee88a03cf150d",
    ("two_unit", "energy", "one_free"):
        "a0d93c2c89bd446f589952d4b9d528aa7cceb43cc3b99d576b7eb02172968a96",
    ("two_unit", "energy", "exact"):
        "f3583f400a3c642c50ef171663e433df9fdcf6aba083c45ffe7602df99ef5a9a",
    ("random0", "throughput", "fixed"):
        "6d74d0d19e2bad89fc0aa1402b29d427d79d031767ae79b2efbe6489601a187a",
    ("random0", "throughput", "one_free"):
        "b3688725d2a508c29b774ce5c8181c3e86eda3e5bba14c54c79ae69ef4600341",
    ("random0", "throughput", "exact"):
        "55f4697e7f89375328af5b57497210b553a66b2ae6427d0e96b851caa45d2d43",
    ("random0", "energy", "fixed"):
        "007cd5c64ac8861c52e2b24532edf3b8e72e5928f9596d97476b1fea209dba22",
    ("random0", "energy", "one_free"):
        "931c05009637e4f3e569be60334c58b6b13b5de3eaecc73c369b0f6e9ff4aacd",
    ("random0", "energy", "exact"):
        "11c3b1b80150e640f15d0c6db6bdc62dce68ad780e21d323263808e1550af6a3",
    ("random1", "throughput", "fixed"):
        "5e9e77475256aa9d6309c881c1dd320930b4c9bcd73c0f6aca0d8f80f12c3d45",
    ("random1", "throughput", "one_free"):
        "fd373fd06fb488847f71e4a5e421f0b7633a5f86d4b9eb4df93121c396bc1b4d",
    ("random1", "throughput", "exact"):
        "e7aad0d33fbefb675d6212293b3f82a21a9131653bba56097c4e3111413067d3",
    ("random1", "energy", "fixed"):
        "1cf2677dc3b9338426d017957d4dedd0858b117fc1fa01fc302a2348a33bc9a6",
    ("random1", "energy", "one_free"):
        "933bf29676388327e840da32e5a4856aad861c9f080ff14a2af53ae6c6e46f5f",
    ("random1", "energy", "exact"):
        "4ff6d7b41308f864098599430ecd42ff6bae5467efc9cf3d54024c87deb279e9",
    ("random2", "throughput", "fixed"):
        "682c133d03667eef0594b84939f91515fae2383528088118dcfcb8e34f3582f5",
    ("random2", "throughput", "one_free"):
        "98bf41434e95984009bc60141fad75220ccd11ba5ccc4871f12fabb80d84d469",
    ("random2", "throughput", "exact"):
        "3e841940e3ce655783f6b69e27dfe46ca565485e72b0d3d53ad84bfc941edca3",
    ("random2", "energy", "fixed"):
        "19e15e6b5b21e9da1528b487915ba6c4e777fd60f7e93041460b0f064f4b6742",
    ("random2", "energy", "one_free"):
        "b2e205c30f70a31ef39c86358ba841c589d6cdd9f3340965e58500f6cdf14967",
    ("random2", "energy", "exact"):
        "e93e775b4b39dd8ea56d8969413108bacbb2fd0435a9f26de1b4f23d57dd38e0",
}

# Fixed powers cycle through these, in frontend id order.
_POWERS = (6300.0, 0.0, 3150.0)


def _instance(name):
    if name == "two_unit":
        return two_unit_instance()
    return random_small_instance(np.random.default_rng(int(name.removeprefix("random"))))


def _build_args(inst, mode):
    """All frontends fixed, all but the first fixed on a 5-level grid, or none."""
    fids = sorted(n.id for n in inst.graph.frontends)
    if mode == "fixed":
        return inst, {f: _POWERS[i % 3] for i, f in enumerate(fids)}
    if mode == "one_free":
        grid = DiscretePower(default_power_levels(inst.radio.p_max_mw, 5))
        return inst.with_power_mode(grid), {f: _POWERS[i % 3] for i, f in enumerate(fids[1:])}
    return inst, None


def _hash(arrays):
    """sha256 object fed the dtype, shape and bytes of each of ``arrays``."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h


def _model_digest(ir):
    """sha256 of a model IR's names, columns, rows and objective."""
    codes, rhs = ir._join()[3:]  # each row's sense code and right-hand side
    obj = ir.objective
    return _hash((
        ir.var_names, ir.binary, ir.lb, ir.ub, ir.row_names, *ir.coo(), codes, rhs,
        obj.sense, obj.cols, obj.coefs, obj.constant,
    )).hexdigest()


@pytest.mark.parametrize("name, problem, mode", list(MODEL_SHA256))
def test_model_pinned(name, problem, mode):
    inst, fixed = _build_args(_instance(name), mode)
    ir = milp.build(inst, problem, fixed).ir
    assert _model_digest(ir) == MODEL_SHA256[(name, problem, mode)]


def _highs_digest(kwargs):
    """sha256 of every argument the backend hands ``backend.milp``, the seed only if any."""
    (con,) = kwargs["constraints"]
    arrays = (
        kwargs["c"], kwargs["integrality"], kwargs["bounds"].lb, kwargs["bounds"].ub,
        con.A.indptr, con.A.indices, con.A.data, con.lb, con.ub,
    )
    if len(kwargs["seed"]):
        arrays += tuple(kwargs["seed"])  # its columns, then their values
    h = _hash(arrays)
    h.update(repr(kwargs["options"]).encode())
    return h.hexdigest()


# _highs_digest of each model of MODEL_SHA256, solved with default options.
# The four exact throughput entries were re-pinned when those models got
# their all-max-power seed: their arrays and options are unchanged, and
# the digest now also hashes the seed's columns.  Every entry was re-pinned
# when models handed HiGHS their proven bound as a stop target: each
# digest without the stop's bytes equals the entry before.  The four exact
# throughput entries were re-pinned again when the seed became columns
# and values: each digest without the seed's bytes is unchanged.  Five
# throughput entries (two_unit one_free and exact, random0 exact, random1
# one_free and exact) were re-pinned when the rate bound gained its
# first-hop term, which lowers their stop to 613.4625315: each digest
# without the stop's bytes is unchanged.  Every entry was re-pinned when
# the stop became HiGHS's ``objective_target`` option: each digest
# without the options' and the stop's bytes is unchanged, the options
# are the entry's options before plus that target, and the target is the
# stop before plus 1e-9 relative (with a floor of 1).
HIGHS_SHA256 = {
    ("two_unit", "throughput", "fixed"):
        "203177b13bcf5c642451a72acbf039c8097c62da23e48a145469c813682aa47e",
    ("two_unit", "throughput", "one_free"):
        "119910dd5981735631cc909929832fb09111b0090d6896e307e26340fc7db38b",
    ("two_unit", "throughput", "exact"):
        "c2ca561cc8d7947fdb946d34930b16167dd87b2f66ca8077585c5df8e7a0635f",
    ("two_unit", "energy", "fixed"):
        "93d6ac8f68ce33c976d8bfd8ee4e4120f8168b155baf04ce98dd8a3a36004456",
    ("two_unit", "energy", "one_free"):
        "9d2005483d0a4b228d9e6076ff2e6090748b06a19d4ab8d85d8d1d22666b874c",
    ("two_unit", "energy", "exact"):
        "576055c07d2f3f1448b692216774b8aa19c5b213bb18d6c9a809073abfaa35fe",
    ("random0", "throughput", "fixed"):
        "694037db9b757c1440aad4b9ad1aab2de9ff26bb9f5985e2d1db4390e6b7e19f",
    ("random0", "throughput", "one_free"):
        "4e7f361640ad6aa85ab2639022a70168a82106da4cc745ba6f5c099d61679226",
    ("random0", "throughput", "exact"):
        "277afa4e0c745dfd1b53fc22f4226cfa1d7f66aada94b618f749b3d89da8436d",
    ("random0", "energy", "fixed"):
        "ed251a586c643733f8702613ae3779c94239f9ca7e819589d0194ea3d153d687",
    ("random0", "energy", "one_free"):
        "8d7a4f6e3da141834f004d83defaa53958d95706da6a015001f65f18d6f8779e",
    ("random0", "energy", "exact"):
        "60967d7fa8de3ce0714e25e07c3f2c1aa8f5e86ca3a4f70312fd2ae134aa968d",
    ("random1", "throughput", "fixed"):
        "148eb11840f533f1e2c0f0b100591cec3f712088c969ea32afec012cae872bc4",
    ("random1", "throughput", "one_free"):
        "6672856f168efa6d4ac8dddd025396eb867b933cc4d20e49915b1fe7010c437f",
    ("random1", "throughput", "exact"):
        "49ea36b7b4d5997382152f4e818c9fa48eb139ec2cbd22ed557f6891ae487fb1",
    ("random1", "energy", "fixed"):
        "1e1ee0361fa937ad3777b4e4d775914e79b935df5ba8c49fa176107be30a7f1e",
    ("random1", "energy", "one_free"):
        "309f7c790ee5854b909f51533dd46f7c8401b1f5c54a06f0a5948c19e1dfd1f2",
    ("random1", "energy", "exact"):
        "50058df79f4eae9a0af3543fbf216bd42d66c7906eed8c5dc48e1eecdfa94e5f",
    ("random2", "throughput", "fixed"):
        "ef1232a0ffee87aa78873b81221e42b0db04f71a57c5a543babdeafdade97f3e",
    ("random2", "throughput", "one_free"):
        "ed5b2b1c9a48c5ace792b1813ebc8b3e4423404df30ca20cbae7aa951285f691",
    ("random2", "throughput", "exact"):
        "fd648f865fef56c877015de0ebeabf43df2fb1a83d09ce51d6cb3d7628c089f2",
    ("random2", "energy", "fixed"):
        "435c9e4de4a73a33bea24a772cb6ccdb4ccdd8a929d9fd47c285844c48e28ef1",
    ("random2", "energy", "one_free"):
        "0dc91076f142654634f34c965428524e063cc728a7e55b9c75b60af434dd11c4",
    ("random2", "energy", "exact"):
        "add64324f3ae390e1c8b69edc1c2b3d71bc3623e08bd7e9b37bdd2484d6bdfe7",
}


@pytest.mark.parametrize("name, problem, mode", list(MODEL_SHA256))
def test_highs_arguments_pinned(name, problem, mode, monkeypatch):
    seen = []

    def fake_milp(**kwargs):
        seen.append(kwargs)
        return OptimizeResult(status=2, message="infeasible", x=None)

    monkeypatch.setattr(backend, "milp", fake_milp)
    inst, fixed = _build_args(_instance(name), mode)
    milp.solve(milp.build(inst, problem, fixed).ir)
    (kwargs,) = seen
    assert _highs_digest(kwargs) == HIGHS_SHA256[(name, problem, mode)]
