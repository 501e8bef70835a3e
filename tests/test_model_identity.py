"""Pinned text of a fixed set of small models.

Each model is pinned by the sha256 of ``ir.lp_text()`` and of an exact
dump, both as the term-by-term builder wrote them, before models were
built from arrays.  ``lp_text`` rounds to 12 significant digits; the
exact dump holds every float at full precision, so a coefficient summed
in another order changes it.  ``HIGHS_SHA256`` pins, for the same
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

# (sha256 of ir.lp_text(), sha256 of _exact_text(ir)).  The one_free models
# were re-pinned when a grid of several levels got one power column.
MODEL_SHA256 = {
    ("two_unit", "throughput", "fixed"): (
        "dcaef805dda2e4ea7236b11f2cfae79015965369db2f79ed0ef9d7e6852128c8",
        "1428ef7ca65533daaeb410fcb6a36d8a2e66be046c624a9d7d74c664ad96952f",
    ),
    ("two_unit", "throughput", "one_free"): (
        "d66dbbcc5aa303327d341e8bf82cd1572c13203edb77c8c2d46547a42382a951",
        "3326c29c29500943f8d008c54f0452ba26ef5ebf0a69a0e55f2991262217b2a1",
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
        "4d73682b9c210f4a5a84c4d4b86f6f797cbe96b6cf99347b7645ab23600dbd36",
        "12fade539e6d8abc15f16b1ef7285b77509ebde0496bb4cc8dcc1cdcb6bcafa9",
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
        "fd8910212c18e912016c94359034a93082667fb639368e177dd5409da6fa3c80",
        "cdd8412fe2db2bb62e2abf139a16ef0c4d5f15c604e8537994620e300d4e3e28",
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
        "58a17cb47638a3ea3b926fa0affedfecd87e1519475fdb3601f115ba2a56aba9",
        "a9f017cbf75c5cc1338aba6fb5c0174c5bd2d1c2cf180eb6ff352cebf9867b67",
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
        "2de1a48ac14df7b6c753ffe285571e25279376c453f8b399b997429bf84e0974",
        "37d54cd97b4e0cda66888c1e27f043096dcb098e4903b18ff9c456ad46fa2b32",
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
        "734ba1062c0d57031a17fb86d6a5edcefcaca7722eadcd91afef51a01babfd38",
        "3fcb0fb682be63b8d32c8c4f08d3790a4c1b5e99597732337838bbe7a6864be8",
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
        "f7cb3b8b2b37a6c62bc874399fe0df7e1df78d2315f4f4f7f51eec25318433c2",
        "f113a1444b92e0790853e10eddd145acdd11bbcf762877679926c5dfa898fc2b",
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
        "7d4829fdfd4e4bda7c1dcbe5a7f25a1929833a42738d8793d2cead7381cae6a4",
        "e0f786340ed47a50e75e9c66d1798aa53318f313335e71066a4c36a3d1bafb61",
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
    kinds = ["binary" if b else "continuous" for b in ir.binary.tolist()]
    cols = list(zip(ir.var_names, kinds, ir.lb.tolist(), ir.ub.tolist()))
    return repr((rows, cols, (ir.objective.sense, ir.objective.terms, ir.objective.constant)))


@pytest.mark.parametrize("name, problem, mode", list(MODEL_SHA256))
def test_model_pinned(name, problem, mode):
    inst, fixed = _build_args(_instance(name), mode)
    ir = milp.build(inst, problem, fixed).ir
    digests = tuple(
        hashlib.sha256(text.encode()).hexdigest() for text in (ir.lp_text(), _exact_text(ir))
    )
    assert digests == MODEL_SHA256[(name, problem, mode)]


def _highs_digest(kwargs):
    """sha256 of every argument the backend hands ``backend.milp``."""
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
        "ed3fd8b4a044dea9a7fc3b64c1e82f65fdfd994beee00f20d4b89852301273a2",
    ("two_unit", "throughput", "exact"):
        "45eb4889848773ce8bbf57cb6b74775bfd734f1889c252d8b5dfcdf1531d7eea",
    ("two_unit", "energy", "fixed"):
        "1c7a2872edf3f5f8f04e3a416f3f01d668fc0d44309b64a5ef3e7d0708eb1beb",
    ("two_unit", "energy", "one_free"):
        "f528f61e1bd3b602165050c489f6d11d7f662afedb6b87b9802f261d3d38ac4b",
    ("two_unit", "energy", "exact"):
        "1a053c4c53e046594ab89d76899b89024a80955436c276e7c3a85343c18bce21",
    ("random0", "throughput", "fixed"):
        "adaee1dfe591f0ac82908cf99b7acb5a82ba2bc06914d1b42ee324779eb278f4",
    ("random0", "throughput", "one_free"):
        "50b186cbd8e46a8f630ac3029f7a6f740ce7688278e8e0c48a2e27ae33a6cd93",
    ("random0", "throughput", "exact"):
        "ca749c1ab79f74553f935ea4e8c23accdd598b6cdeb62781f916724aa380c3b1",
    ("random0", "energy", "fixed"):
        "9647bfc9030ae2336bac19bd37bf7679928a7d0e5595cd3249ef39e06d25ebfc",
    ("random0", "energy", "one_free"):
        "1e3c702c6f8ab970cd736385338a9d23d1857b68749f0dfd1bab6d51732847f9",
    ("random0", "energy", "exact"):
        "b577725cd3b9eb6030929bf9eea978cb4055664147061574828f223cf3f16f21",
    ("random1", "throughput", "fixed"):
        "c2a3708684bfac0432b3d0ef0dbffe5fb0ff6b8e538aff8e4e876dd37d275a3f",
    ("random1", "throughput", "one_free"):
        "83dd1041553cba8a34b16c0398c9f69905129b6b57d3a3629573cab118b0e927",
    ("random1", "throughput", "exact"):
        "d2efaae714f27ae9ed6484d3acd470ef7f0e52900a3ca13e2501c8ef6910a18a",
    ("random1", "energy", "fixed"):
        "c51f8a551a5835e158e336dde39cc7c1c9197a6af72dd26d36bdec45a1bc355d",
    ("random1", "energy", "one_free"):
        "5483051228378288247875bb79aeab5ca890f3befc3e6c628e93db54ba615aad",
    ("random1", "energy", "exact"):
        "4a2adda68453fcd8dd05c7950a50217dcbfbd03ce1038be441a4463bdedb05f0",
    ("random2", "throughput", "fixed"):
        "ff2ee51c2939ad0d8c91a9b5ed877532c1670201ae0a4855c94647ddd8442a91",
    ("random2", "throughput", "one_free"):
        "93bc5a7a41663adfc4c5b635ae2b0de1e1d4900b489f67e0c9a5b94ae3b8dc74",
    ("random2", "throughput", "exact"):
        "e7696fc90e27530c9e5ff4880f52f70d18aa5aa9fe5f261a143a32bd12e86810",
    ("random2", "energy", "fixed"):
        "8f627c9a0dca2ec3ffeec2be9eaf5545037340928508331bc236e86e6c337349",
    ("random2", "energy", "one_free"):
        "3fa406b07e2f2bca2725cc77d65e3ebbd69483df0d5e305271998012b66f3210",
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
    inst, fixed = _build_args(_instance(name), mode)
    milp.solve(milp.build(inst, problem, fixed).ir)
    (kwargs,) = seen
    assert _highs_digest(kwargs) == HIGHS_SHA256[(name, problem, mode)]
