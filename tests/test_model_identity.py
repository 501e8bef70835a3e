"""Pinned arrays of a fixed set of small models.

``MODEL_SHA256`` pins each model by the sha256 of the model IR's arrays
at full precision (dtype, shape and bytes of each), so a coefficient
summed in another order changes it.  ``HIGHS_SHA256`` pins, for the same
models, every argument the backend hands ``backend.milp``.  A change
that claims to leave the models as they are must keep every hash; a
change that alters a model on purpose must argue it and re-pin that
model.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from iabtopo import milp
from iabtopo.milp import backend, builder
from iabtopo.problem import DiscretePower, default_power_levels

from conftest import random_small_instance, two_unit_instance

# _model_digest of each model.  These replaced a pair of text digests (the
# IR's LP dump and an exact repr of its rows) once that dump was removed;
# they were computed on the commit whose text digests they replaced.
# Every entry was re-pinned when the digest moved from each row's sense
# code and right-hand side to its public (lower, upper) bounds: the new
# digests were computed on the commit before rows came to be stored as
# bounds, where every entry before still held.  The twelve energy entries
# were re-pinned when energy models gained their wsum and capw rows: each
# model with those rows taken out hashes as the entry before.  Three exact
# throughput entries (two_unit, random0, random1) were re-pinned when
# exact models on a power grid got Z's upper bound at their proven bound:
# each model with Z's upper bound set back to the table's top capacity
# hashes as the entry before (random2's bound is that top capacity).
MODEL_SHA256 = {
    ("two_unit", "throughput", "fixed"):
        "742eda0c9b92bb8066fbdb0b8dd8ffc1118432c21f16cb65ba76ec4a8761f36d",
    ("two_unit", "throughput", "one_free"):
        "351f2d83a1584fd3e4be73eff506db730e9dd0e988f952f75400de6f3157b96f",
    ("two_unit", "throughput", "exact"):
        "e1106bdfccc420bb64ad2076f653f23233901fd8b1e19529eb8fe6b09de1d8c4",
    ("two_unit", "energy", "fixed"):
        "27caae09e6a484d1a87af9e218b067b409385eff9af927c4ac7cb4ddc606d1b1",
    ("two_unit", "energy", "one_free"):
        "c6513a263a99b6a300698fcc80c0c0166423e37caac737879cdc859b702dac85",
    ("two_unit", "energy", "exact"):
        "58d192c7ca23f70dcccacedd7e238aecdbcb8343979a4c3514b66515388cb965",
    ("random0", "throughput", "fixed"):
        "ee84845f7f33550c4cebc9aa11d29b194d166011cd7019f3d2f32e8c5c5e3a00",
    ("random0", "throughput", "one_free"):
        "d6867cf387ef8bff4172a8379931abea0ddc1850f49d7d64d8db5d04c5eb90f3",
    ("random0", "throughput", "exact"):
        "833d560c5c4d0111df9a9e3bf622c34fa005b9653f2d3440b2a5d4f6a48ab767",
    ("random0", "energy", "fixed"):
        "c0f0017d1da08de292f83ae3aca02754334a80fd1c7f58e41a34607afeb6f7aa",
    ("random0", "energy", "one_free"):
        "7f2d7318258989a2f2884208804709bcbdc838003abab7edae170492fbe3f4de",
    ("random0", "energy", "exact"):
        "9e84b1783449922d7f37edcdae60d3b6c420b009770b2c89f650a800670fb7e4",
    ("random1", "throughput", "fixed"):
        "1a8e311170f31969d88d05acbefdc4d54a1650c7e031420fa2d1117c9a0cd7ba",
    ("random1", "throughput", "one_free"):
        "8336e092111c1ad92aa354494499f9fd0b189183fa925a49aa228ff4e22ac031",
    ("random1", "throughput", "exact"):
        "74a389f914304bedf1d5c5d37c92ca190df13c01be9cc47559316747562d6579",
    ("random1", "energy", "fixed"):
        "014e20dfb6d7791ed2da2c8682c80fb7e5a06b058ab7e3889695b1964d111528",
    ("random1", "energy", "one_free"):
        "ac7138b16300fa6a41a626f33ecb7472e8cc4d07b8a41e3ba84c9adca9145742",
    ("random1", "energy", "exact"):
        "db17382d411f4305a395c5b7811140d4849282fb919e1287f8f05df9a5d5864b",
    ("random2", "throughput", "fixed"):
        "8a7e51b73044f6653361ba18e8d775da3f15af795f6ea121b09740d41e0ac05d",
    ("random2", "throughput", "one_free"):
        "0d706a59a4c19c75fda80cb1af940619ea3bfb60ac9a0161d3096daa12f013e8",
    ("random2", "throughput", "exact"):
        "e62de00f2cbb9670b2ad012bac6974c3aade4f00506269e29ed726047400dc15",
    ("random2", "energy", "fixed"):
        "ce322d2f8cb2e0f2bfe2d37806989c7e21d014df2877ac6abdd4fc17e357978b",
    ("random2", "energy", "one_free"):
        "a26249990e369fae007c6616a69333737b032a16e6d5e50ac9f0a812c38428bf",
    ("random2", "energy", "exact"):
        "2b7ab10d53821e41921f542d2593f7329997fbb9612bad8075ba103c2e6becb4",
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


@pytest.mark.parametrize("name, problem, mode", list(MODEL_SHA256))
def test_builds_after_the_bound_take_its_head_unchanged(name, problem, mode, monkeypatch):
    # model_bound keeps its head for the build of the same trial.  Two
    # builds from that one head are both the pinned model, so neither
    # writes into it; another instance object or other fixed powers is
    # another trial, with a head of its own.
    inst, fixed = _build_args(_instance(name), mode)
    heads = []
    head = builder._head

    def spy(*args):
        heads.append(args)
        return head(*args)

    monkeypatch.setattr(builder, "_head", spy)
    bound = milp.model_bound(inst, problem, fixed)
    for _ in range(2):
        built = milp.build(inst, problem, None if fixed is None else dict(fixed))
        assert _model_digest(built.ir) == MODEL_SHA256[(name, problem, mode)]
        assert built.bound == bound
    assert len(heads) == 1
    milp.build(dataclasses.replace(inst), problem, fixed)
    first = min(n.id for n in inst.graph.frontends)
    milp.build(inst, problem, {**(fixed or {}), first: 0.0})
    assert len(heads) == 3


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
# stop before plus 1e-9 relative (with a floor of 1).  The twelve energy
# entries were re-pinned with the wsum and capw rows: each digest of the
# model with those rows taken out equals the entry before.  The four exact
# energy entries were re-pinned when those models got their awake-set
# seed: each digest without the seed's bytes equals the entry before.  The
# same three exact throughput entries as in MODEL_SHA256 were re-pinned
# with Z's upper bound at the proven bound: with Z's upper bound set back
# to the table's top capacity, each digest equals the entry before.
HIGHS_SHA256 = {
    ("two_unit", "throughput", "fixed"):
        "203177b13bcf5c642451a72acbf039c8097c62da23e48a145469c813682aa47e",
    ("two_unit", "throughput", "one_free"):
        "119910dd5981735631cc909929832fb09111b0090d6896e307e26340fc7db38b",
    ("two_unit", "throughput", "exact"):
        "529125f197a46ab3e614bfbb112780ec4d38b5c8589a9e1dacf064ad5d73306f",
    ("two_unit", "energy", "fixed"):
        "e84f06756b32b9d0ef96284c8412cbb8c3ef92591119dea58bcf77c0cac69d0a",
    ("two_unit", "energy", "one_free"):
        "c4883edef6cb198265d416fa07a840ce340928cd3dc7926ee07a105fd37934f3",
    ("two_unit", "energy", "exact"):
        "b6733465bbae742008c8e13b86960a08fa5222517716f301756bc30bba760a6c",
    ("random0", "throughput", "fixed"):
        "694037db9b757c1440aad4b9ad1aab2de9ff26bb9f5985e2d1db4390e6b7e19f",
    ("random0", "throughput", "one_free"):
        "4e7f361640ad6aa85ab2639022a70168a82106da4cc745ba6f5c099d61679226",
    ("random0", "throughput", "exact"):
        "b7ff80b26fe059c2f3d83b9edca53ecda764203edc102908e7169e284003b24a",
    ("random0", "energy", "fixed"):
        "f9e65d173534a482c41ef07d188db9920be861bcb37b6fcab04cf9d923306369",
    ("random0", "energy", "one_free"):
        "38fad322d4aace90d0f44f1c2e5179d1daf9a73cff16464135b24a3cf13b4902",
    ("random0", "energy", "exact"):
        "2fa7707cfadabca280997514ca9ab128e07dc8de60022118ea1aba7500337272",
    ("random1", "throughput", "fixed"):
        "148eb11840f533f1e2c0f0b100591cec3f712088c969ea32afec012cae872bc4",
    ("random1", "throughput", "one_free"):
        "6672856f168efa6d4ac8dddd025396eb867b933cc4d20e49915b1fe7010c437f",
    ("random1", "throughput", "exact"):
        "6dee6b97ef9bf626268867d9a4081dc6e7a7dbdf9eab1f86e387337cbbe196f1",
    ("random1", "energy", "fixed"):
        "10e39013f5d14c088a1ca3bd045e590468dc17ea646322183862d20fbbdda485",
    ("random1", "energy", "one_free"):
        "c85f8a70e350ff6f20aa7e977a8fc83ac9a58b34dd9f352e270186b235523109",
    ("random1", "energy", "exact"):
        "425363b9dc4f40c4ef38f4bc01ef8f130067322d85a77325ffcbba918ba4c488",
    ("random2", "throughput", "fixed"):
        "ef1232a0ffee87aa78873b81221e42b0db04f71a57c5a543babdeafdade97f3e",
    ("random2", "throughput", "one_free"):
        "ed5b2b1c9a48c5ace792b1813ebc8b3e4423404df30ca20cbae7aa951285f691",
    ("random2", "throughput", "exact"):
        "fd648f865fef56c877015de0ebeabf43df2fb1a83d09ce51d6cb3d7628c089f2",
    ("random2", "energy", "fixed"):
        "4c5fb32d1604dac1016a1af432d56ef7e346f5f137ae5251db8c93648af575e0",
    ("random2", "energy", "one_free"):
        "9418a79d8b58348d6b736c99274a239ad20a64bb46229df752c35bcb74a01533",
    ("random2", "energy", "exact"):
        "5fc48557855e98408b0bbcb678066d82bdd0df64567f62e1a78bb6801febdfa3",
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
