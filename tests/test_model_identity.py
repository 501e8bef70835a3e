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
    h.update(repr(kwargs["stop"]).encode())
    return h.hexdigest()


# _highs_digest of each model of MODEL_SHA256, solved with default options.
# The four exact throughput entries were re-pinned when those models got
# their all-max-power seed: their arrays and options are unchanged, and
# the digest now also hashes the seed's columns.  Every entry was re-pinned
# when models handed HiGHS their proven bound as a stop target: each
# digest without the stop's bytes equals the entry before.  The four exact
# throughput entries were re-pinned again when the seed became columns
# and values: each digest without the seed's bytes is unchanged.
HIGHS_SHA256 = {
    ("two_unit", "throughput", "fixed"):
        "5d0a00c0388ec5ff0d82f3b50ba46da96985b8e5837a567bc3f48a2506890e7f",
    ("two_unit", "throughput", "one_free"):
        "de050ca85f118d257f16f5b2bdf755be8d622b7a490786b308685ef26020d64f",
    ("two_unit", "throughput", "exact"):
        "1b666bf0796860b1766fafb240e1221c800d3bc57efb799eeb84fcc25114bfde",
    ("two_unit", "energy", "fixed"):
        "ff65629e13f28626e3509d835baea4a8cb397dbd1c381c48bb8dff01ad793717",
    ("two_unit", "energy", "one_free"):
        "9f4fe909255839dceaf5a7b0513d01a3ea3f17f916156032c359a12ffbbeb5d1",
    ("two_unit", "energy", "exact"):
        "c1c8b6622070f4cf7d0c0b25ec4dd34299e9553ded4c615ced79aa7f7a7eae54",
    ("random0", "throughput", "fixed"):
        "b7c5b5875f541a6f019b9da896d572f590360881fe4641e72ef5958b24f61ec3",
    ("random0", "throughput", "one_free"):
        "d70ce68313a25b7e8161f912172856d2ebb787af97e7deaa083f41000c4f11ee",
    ("random0", "throughput", "exact"):
        "0c16b0a5f51ec032d5595f359b662adf30cac9c6763c21b028c86016b51d48e1",
    ("random0", "energy", "fixed"):
        "14d3e8afe2c1e25cb8f940dbe4eac8a6091c53dabfc9f2a3246d684c47198856",
    ("random0", "energy", "one_free"):
        "431a2e373eda12d825187e43d8cd2d170998fd05e17abb3d3dbbd8e7959ff5e0",
    ("random0", "energy", "exact"):
        "35cdef2e3327c2ebdf6308170e8276f5318238c8ebeba4a89a3667e71ccae005",
    ("random1", "throughput", "fixed"):
        "28607bc824326951cecb9a1e2948e51be0964243382ef5e72cdba180a399809f",
    ("random1", "throughput", "one_free"):
        "e9c345130b6b4dd746319cb431e15cda1a881ad797ecdf0e395fbf5bebcc91ec",
    ("random1", "throughput", "exact"):
        "0c783b6ff76c3f7440b9facf07ba85b7deb11d392a825e12fbea3be3d9376d68",
    ("random1", "energy", "fixed"):
        "da6fec4bea2ee077e645292f1fff81327cdfb842bdec96424da2d4be3e8b2d77",
    ("random1", "energy", "one_free"):
        "20c0f1fd5a647822cafcbe77329a12de783dbb95218d95394659efce459f982e",
    ("random1", "energy", "exact"):
        "10d6551e14e55a3ffb8b71c80a9e6e8fa4d37e4fedc8b6a5727c910aeaad1983",
    ("random2", "throughput", "fixed"):
        "92d0bd154da92f13502371a94562bbdc76321ff7888c740891a46bd6b9a364f5",
    ("random2", "throughput", "one_free"):
        "82e0fd059b1bf9c22081ad371c91d8df4dd77c30b75d99dbc3b7cfac69468eb1",
    ("random2", "throughput", "exact"):
        "443e588e08e683cc6220b44efc3236f768e73d1abf0e5a8306edcdc79ccaa568",
    ("random2", "energy", "fixed"):
        "4abf2cabb0ab706f735d0794dc61061e5ae3bdb552e17cabd90c8c33b1345e49",
    ("random2", "energy", "one_free"):
        "b1e834e87aab8885d8abe9a2ba3da263316f5865a3ba348087ec8e3726ec209e",
    ("random2", "energy", "exact"):
        "f8c7ac7de78648fd094bf099b18ffe6844dd18aac24c327e0b61d34647391fb7",
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
