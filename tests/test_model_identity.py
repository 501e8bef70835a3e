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
    """sha256 of every argument the backend hands ``backend.milp``, the seed only if any."""
    (con,) = kwargs["constraints"]
    arrays = (
        kwargs["c"], kwargs["integrality"], kwargs["bounds"].lb, kwargs["bounds"].ub,
        con.A.indptr, con.A.indices, con.A.data, con.lb, con.ub,
    )
    if len(kwargs["seed"]):
        arrays += (kwargs["seed"],)
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    h.update(repr(kwargs["options"]).encode())
    h.update(repr(kwargs["stop"]).encode())
    return h.hexdigest()


# _highs_digest of each model of MODEL_SHA256, solved with default options.
# The four exact throughput entries were re-pinned when those models got
# their all-max-power seed: their arrays and options are unchanged, and
# the digest now also hashes the seed's columns.  Every entry was re-pinned
# when models handed HiGHS their proven bound as a stop target: each
# digest without the stop's bytes equals the entry before.
HIGHS_SHA256 = {
    ("two_unit", "throughput", "fixed"):
        "5d0a00c0388ec5ff0d82f3b50ba46da96985b8e5837a567bc3f48a2506890e7f",
    ("two_unit", "throughput", "one_free"):
        "de050ca85f118d257f16f5b2bdf755be8d622b7a490786b308685ef26020d64f",
    ("two_unit", "throughput", "exact"):
        "a3345a686ee9f6942beb55c4cf968ed7664c650d056bca29d35221c99c658a8e",
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
        "5f22bf2b1d88edb802632c87178034b3403da0bb47aee408d5ff5f3727fad310",
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
        "a47ae38051e4d076b7cecdd4b8002039d0b7fdc5ed475d10ac01301cfd5d1f22",
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
        "6bb6eebaea8367e433d993850db6019309e1ff41ca640236f10924eb1f3712c7",
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
