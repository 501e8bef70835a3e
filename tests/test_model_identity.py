"""Pinned text of a fixed set of small models.

Each model is pinned by the sha256 of ``ir.lp_text()`` and of an exact
dump, both as the term-by-term builder wrote them, before models were
built from arrays.  ``lp_text`` rounds to 12 significant digits; the
exact dump holds every float at full precision, so a coefficient summed
in another order changes it.  ``HIGHS_SHA256`` pins, for the same
models, every argument the backend hands scipy's ``milp``.  A change
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

# (sha256 of ir.lp_text(), sha256 of _exact_text(ir))
MODEL_SHA256 = {
    ("two_unit", "throughput", "fixed"): (
        "dcaef805dda2e4ea7236b11f2cfae79015965369db2f79ed0ef9d7e6852128c8",
        "1428ef7ca65533daaeb410fcb6a36d8a2e66be046c624a9d7d74c664ad96952f",
    ),
    ("two_unit", "throughput", "one_free"): (
        "8f348ef3d63f1e9a3042b150263880ea89adfd469981f3032b03db48251349dc",
        "8b3e81abc26b4eca967480b05b0f0bc0b1522338505e87b8cde426e4d052e096",
    ),
    ("two_unit", "throughput", "exact"): (
        "082cb83c25d2f615537571253e2a04e585d02f644227e18dba263bf0ae533552",
        "32f129cf5b199f4de9fd77eea1a9b984afcd2deff98afc8f3273214624acde7d",
    ),
    ("two_unit", "energy", "fixed"): (
        "44f3b8acfdcbe383fa1e466c73df0393e57fc6e47b747d62ebdb8f742b4873ef",
        "3772f9c17f59d4f0622789c8baec80b127a77f695adbe964d96a8701ab3defed",
    ),
    ("two_unit", "energy", "one_free"): (
        "61d7f9ae85df32edfd6318c9bbd0e903c9f707d011c51f532ae4e801f5616db3",
        "51b93421c8ab3a8f69b6fd00f426c578a5eb13f6afb788322e7c78227280291f",
    ),
    ("two_unit", "energy", "exact"): (
        "5bf3d3a8e51f99b6280188db66628e01d9fcd98dc8899bbb429a7c522966501e",
        "4d62d46b3163c0867873ca0a8e8a3ab6a39c9503de673afaa535840bf1e6acc4",
    ),
    ("random0", "throughput", "fixed"): (
        "578ce75fee052507a07f66a4413684b880eed38c8393410af266b8e0335f2d9b",
        "50268c4afc8e3bbd2ff2857c59aafa952586af45c4c4be5098fd1cd2e9dff164",
    ),
    ("random0", "throughput", "one_free"): (
        "ff0fce6c8e77375295abe2bfab4a8a31ce44e53139e4fcec36bfe6957fa0cb2b",
        "3f89251f17b6acaacd45b14bc94d8e963a4470dc38a86d948d7ff23551753513",
    ),
    ("random0", "throughput", "exact"): (
        "7714ce025a7dbd4c02071611a013563d5d0e33842a0d5e90269d1cd8cfd452c6",
        "5f46039394b1d1ab7615ade9445959f6bef566db711a2f0f3f90dfab715d5a22",
    ),
    ("random0", "energy", "fixed"): (
        "5d0a7a9161f9392e4745b0d2c54102d7c7ac3c346e30a00507854084d4b0e4fa",
        "0df465f4f5266589f0a5c88183bea0210313662bca2e736d0635e540ae9984ad",
    ),
    ("random0", "energy", "one_free"): (
        "d5db91267b694ca64210db72ccda650078f4e73780706a5dac8f27ec7ba80af2",
        "2ede204a42d036a515404ab2f76f7e1df0ab45561f1a5fd61bd78420524829f2",
    ),
    ("random0", "energy", "exact"): (
        "be3bc897a4dca04eb4ab9b9a0b103a1a995013afcf441fa882c50f6f699eb9d2",
        "196faa904a8f9a625a87cf6a45fb6fb27f5a67602baba40d43816562bc3cebf3",
    ),
    ("random1", "throughput", "fixed"): (
        "bc0fede05a011f3452beb90af2671e9098cbb55a916dc65213f9737ce8cf6b12",
        "5f1a6f4e250a21295a41ea381f7353c8e014f3053710c4f0e59462d017159f4d",
    ),
    ("random1", "throughput", "one_free"): (
        "6135158ffccacb25040f21efc6d15ca0a5460d49324604555fd99be7e1dddf2d",
        "58c9faa10a5d5e87306d2d6e4f628dd854f99c7b87cf784df8d5e8838c85b37f",
    ),
    ("random1", "throughput", "exact"): (
        "a3bdb2783b91ae1d4805f5620731fc04794bbe9622a84d5fc717ffe675d23103",
        "4ee3914cadbaf5be6a7ebf6bfeb0450bf512af41a5bdc29a5322e0ce7b60abcd",
    ),
    ("random1", "energy", "fixed"): (
        "fddad55df954b90aa0a0b8c254f1a02ccde33b19b4793a6642faaf8167830d76",
        "ee09c3eb70f660c1e19dbd18e1ddd82f75af5310e3661a0c4ae5f12df1725f30",
    ),
    ("random1", "energy", "one_free"): (
        "fcdc0a4edf6125a0939b1c169718103832dda52bef57f5098ef2f950b57d329b",
        "c8ff196e30ab99f121f7f095a2cca7b6b5a1af0eceb565a04b215233b0d643a1",
    ),
    ("random1", "energy", "exact"): (
        "1fa513ac054fc9f07b5e35645d4372782eb0edd55291542f6f51aed40e3717b4",
        "3ddc1a50dd8f43ad2f8d81dc8337ced7cddd20d70b79d0d5ee4a8360efcfc01d",
    ),
    ("random2", "throughput", "fixed"): (
        "918f3511460821c7566e9faa9a836a3b59ee319d8d18baabec6a443625b5258a",
        "dd82af81ddf7baca44396b4fc0ef50c48fae116a60886969bc60c899dd370321",
    ),
    ("random2", "throughput", "one_free"): (
        "cc55bea18badd8549bd35c2657f81d8b746780e254203bb3fbf0447b643f8da3",
        "5116c45614b1afbb1dcb872d059fbe96235e9ac2ec0264632cb9b82715a346ae",
    ),
    ("random2", "throughput", "exact"): (
        "03e83ca168f6e1490060b202444ce2cd57952f460d80f10c257a11c79269a66e",
        "4c81ab11b9614d5a98e839a4a49f2ef52819f039d20d65e76a389cb38bfeaf20",
    ),
    ("random2", "energy", "fixed"): (
        "e831e34a923e6d970588c2e27f300bf98689853aad92b046099be219c4a4c3f6",
        "ca7624429a6d888b80f0f5f42ae2ff7493fa5f0a7cc0b0026740bbfcdac16262",
    ),
    ("random2", "energy", "one_free"): (
        "b079d3cadb937f8b5e27b4182f31e9afa985a2e40ebea5494f8711052dbdfc2c",
        "1a6facd2890a841fb092eea930b22b2b6fabfeaa9438dfe37aa60ef4aaab52e7",
    ),
    ("random2", "energy", "exact"): (
        "6b2bfd08f9abfef2f25e92e280dd24a8ea84629007af8c7dcbccbe4b5e1a997c",
        "df4ab2bd29a6a7dc37348db13e0bd224b41a03ad1a1a979ed96ed81520333dd2",
    ),
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


def _exact_text(ir):
    rows = [(c.name, c.terms, c.sense.value, c.rhs) for c in ir.constraints]
    cols = [(v.name, v.kind.value, v.lb, v.ub) for v in ir.variables]
    return repr((rows, cols, (ir.objective.sense, ir.objective.terms, ir.objective.constant)))


@pytest.mark.parametrize("name, problem, mode", list(MODEL_SHA256))
def test_model_pinned(name, problem, mode):
    build = milp.build_throughput_model if problem == "throughput" else milp.build_energy_model
    inst, fixed = _build_args(_instance(name), mode)
    ir = build(inst, fixed_powers=fixed).ir
    digests = tuple(
        hashlib.sha256(text.encode()).hexdigest() for text in (ir.lp_text(), _exact_text(ir))
    )
    assert digests == MODEL_SHA256[(name, problem, mode)]


def _highs_digest(kwargs):
    """sha256 of every argument the backend hands scipy's ``milp``."""
    (con,) = kwargs["constraints"]
    arrays = (
        kwargs["c"], kwargs["integrality"], kwargs["bounds"].lb, kwargs["bounds"].ub,
        con.A.indptr, con.A.indices, con.A.data, con.lb, con.ub,
    )
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    h.update(repr(kwargs["options"]).encode())
    return h.hexdigest()


# _highs_digest of each model of MODEL_SHA256, solved with default options.
HIGHS_SHA256 = {
    ("two_unit", "throughput", "fixed"):
        "5b87c66d866d1a5dcef106d23dba4810880be5d51255b8b851dd8a53430fc290",
    ("two_unit", "throughput", "one_free"):
        "5ba8c30f49cf488d4079915ffbadf0378b1f79a4d6e18d9c87e531e93037e146",
    ("two_unit", "throughput", "exact"):
        "45eb4889848773ce8bbf57cb6b74775bfd734f1889c252d8b5dfcdf1531d7eea",
    ("two_unit", "energy", "fixed"):
        "1c7a2872edf3f5f8f04e3a416f3f01d668fc0d44309b64a5ef3e7d0708eb1beb",
    ("two_unit", "energy", "one_free"):
        "025af7540e1262ef596bcffba6c74c221956654d47611b490dc4bca2e2b0ce2a",
    ("two_unit", "energy", "exact"):
        "1a053c4c53e046594ab89d76899b89024a80955436c276e7c3a85343c18bce21",
    ("random0", "throughput", "fixed"):
        "adaee1dfe591f0ac82908cf99b7acb5a82ba2bc06914d1b42ee324779eb278f4",
    ("random0", "throughput", "one_free"):
        "2b934b3ed273b316d7dce84275e6b5ecf9c95e6a5dcc4d997c60ec65627c80a7",
    ("random0", "throughput", "exact"):
        "ca749c1ab79f74553f935ea4e8c23accdd598b6cdeb62781f916724aa380c3b1",
    ("random0", "energy", "fixed"):
        "9647bfc9030ae2336bac19bd37bf7679928a7d0e5595cd3249ef39e06d25ebfc",
    ("random0", "energy", "one_free"):
        "65824a349dff6112cf34e430fd654715fc9d77550825765d87659b7082cf80b6",
    ("random0", "energy", "exact"):
        "b577725cd3b9eb6030929bf9eea978cb4055664147061574828f223cf3f16f21",
    ("random1", "throughput", "fixed"):
        "c2a3708684bfac0432b3d0ef0dbffe5fb0ff6b8e538aff8e4e876dd37d275a3f",
    ("random1", "throughput", "one_free"):
        "d917b59ce3ba5cf70a8aa8f793a332754aa0b19119ebfa2c0500c442a26dde3a",
    ("random1", "throughput", "exact"):
        "d2efaae714f27ae9ed6484d3acd470ef7f0e52900a3ca13e2501c8ef6910a18a",
    ("random1", "energy", "fixed"):
        "c51f8a551a5835e158e336dde39cc7c1c9197a6af72dd26d36bdec45a1bc355d",
    ("random1", "energy", "one_free"):
        "cc5f95c1c01c55b58ad128d214f38666c49a4c716ffd2bab0a94a5607f6c8c5f",
    ("random1", "energy", "exact"):
        "4a2adda68453fcd8dd05c7950a50217dcbfbd03ce1038be441a4463bdedb05f0",
    ("random2", "throughput", "fixed"):
        "ff2ee51c2939ad0d8c91a9b5ed877532c1670201ae0a4855c94647ddd8442a91",
    ("random2", "throughput", "one_free"):
        "25f53ae59d385e6d63cd30435c50c49eef743a1a16a027bdb35093699e1515eb",
    ("random2", "throughput", "exact"):
        "e7696fc90e27530c9e5ff4880f52f70d18aa5aa9fe5f261a143a32bd12e86810",
    ("random2", "energy", "fixed"):
        "8f627c9a0dca2ec3ffeec2be9eaf5545037340928508331bc236e86e6c337349",
    ("random2", "energy", "one_free"):
        "16b54586bb268a798d077075a7261a4bce58733f8e1204c7c76e631ba39d335f",
    ("random2", "energy", "exact"):
        "313eda2349cf4b471c9d345187d09db1a6436ec06b7c386928ba91126cb7a1c7",
}


@pytest.mark.parametrize("name, problem, mode", list(MODEL_SHA256))
def test_highs_arguments_pinned(name, problem, mode, monkeypatch):
    seen = []

    def fake_milp(**kwargs):
        seen.append(kwargs)
        return OptimizeResult(status=2, message="infeasible", x=None)

    monkeypatch.setattr(backend, "milp", fake_milp)
    build = milp.build_throughput_model if problem == "throughput" else milp.build_energy_model
    inst, fixed = _build_args(_instance(name), mode)
    milp.solve(build(inst, fixed_powers=fixed).ir)
    (kwargs,) = seen
    assert _highs_digest(kwargs) == HIGHS_SHA256[(name, problem, mode)]
