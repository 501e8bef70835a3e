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
# Every entry was re-pinned when the digest moved from each row's sense
# code and right-hand side to its public (lower, upper) bounds: the new
# digests were computed on the commit before rows came to be stored as
# bounds, where every entry before still held.
MODEL_SHA256 = {
    ("two_unit", "throughput", "fixed"):
        "742eda0c9b92bb8066fbdb0b8dd8ffc1118432c21f16cb65ba76ec4a8761f36d",
    ("two_unit", "throughput", "one_free"):
        "351f2d83a1584fd3e4be73eff506db730e9dd0e988f952f75400de6f3157b96f",
    ("two_unit", "throughput", "exact"):
        "80617edebc488247492390c0c5337884c7555de3929c3c49a3fc99d3a946e78b",
    ("two_unit", "energy", "fixed"):
        "f119bf8e9d6f97006917a23bff72a885dc5c021bdb4bf37ade1944efe64254b6",
    ("two_unit", "energy", "one_free"):
        "9461fb3f4ee252b20d8d331d48370288787e7e2d6ea8fe505d201ebd0134639f",
    ("two_unit", "energy", "exact"):
        "98ecc96afca1afaa1c9e547321d49c26592b98f881c5cd3469b2747f251145f7",
    ("random0", "throughput", "fixed"):
        "ee84845f7f33550c4cebc9aa11d29b194d166011cd7019f3d2f32e8c5c5e3a00",
    ("random0", "throughput", "one_free"):
        "d6867cf387ef8bff4172a8379931abea0ddc1850f49d7d64d8db5d04c5eb90f3",
    ("random0", "throughput", "exact"):
        "dbdd5deeff47f6e60d1fb0e50238c050aa5fa3f1ec8d4b7df2c2bed8842c7b99",
    ("random0", "energy", "fixed"):
        "b46e085e1cd97a7e3450693b7c3f9f85549a89e8cab05133400b370da0e14e43",
    ("random0", "energy", "one_free"):
        "453f0891f78b85e41dcae80c4ff8fe6b88aa0c18ab06adcdb0550c29b51f38c4",
    ("random0", "energy", "exact"):
        "a8a7f00f435a072808f0bbb8e35ad8d2dac2d67dfb682aa8aa919a85eb07b583",
    ("random1", "throughput", "fixed"):
        "1a8e311170f31969d88d05acbefdc4d54a1650c7e031420fa2d1117c9a0cd7ba",
    ("random1", "throughput", "one_free"):
        "8336e092111c1ad92aa354494499f9fd0b189183fa925a49aa228ff4e22ac031",
    ("random1", "throughput", "exact"):
        "2653f869a0b7e3f56fd58cb9272a2c57235fb95f660fed037d7df94481a02d27",
    ("random1", "energy", "fixed"):
        "82784edc8b1295e3b93ade2a7a06d3dc3d8423b1613707a2dfda1081cdff6349",
    ("random1", "energy", "one_free"):
        "28ef9fa13d779ee0a7365aac7295de9b30fe28bc1d29a616673e65870685c52f",
    ("random1", "energy", "exact"):
        "5fea72f21451a9bdabaa67a50106c5bdd016b93296499ca6922a1d14bb120042",
    ("random2", "throughput", "fixed"):
        "8a7e51b73044f6653361ba18e8d775da3f15af795f6ea121b09740d41e0ac05d",
    ("random2", "throughput", "one_free"):
        "0d706a59a4c19c75fda80cb1af940619ea3bfb60ac9a0161d3096daa12f013e8",
    ("random2", "throughput", "exact"):
        "e62de00f2cbb9670b2ad012bac6974c3aade4f00506269e29ed726047400dc15",
    ("random2", "energy", "fixed"):
        "890f16cb281bfbb6bea74aba4d22e2a0941f68288e492c268501ee5e98d24ac0",
    ("random2", "energy", "one_free"):
        "67d5ba6909f518ac6a12686b8708719b0144e84eb1e00b98e6f8d90af12790d9",
    ("random2", "energy", "exact"):
        "8c3bb05bf42459a42d8b1daf36bb169c2c77ae3c9eeb5f4a1bf7f4fecff07cdf",
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
    obj = ir.objective
    return _hash((
        ir.var_names, ir.binary, ir.lb, ir.ub, ir.row_names, *ir.coo(), *ir.row_bounds(),
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
