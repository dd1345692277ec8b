"""Golden regression: the use cases' ``run_use_case`` runners reproduce
the pre-campaign-refactor results bit-for-bit.

The JSON files under ``tests/golden/`` were captured from the
implementations *before* the use cases were rebased onto the
``repro.experiments`` subsystem (shared cluster builder, vectorised
``Cluster.reset_nodes``, registry dispatch).  Any numeric drift here
means the refactor changed experiment semantics — regenerate the
goldens only for a deliberate, documented change
(``PYTHONPATH=src python tests/golden/regen.py``).
"""

import hashlib
import importlib.util
import json
import os

import pytest

from repro.core import usecases

_GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _load_regen():
    spec = importlib.util.spec_from_file_location(
        "golden_regen", os.path.join(_GOLDEN_DIR, "regen.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_REGEN = _load_regen()


@pytest.mark.parametrize("name", sorted(_REGEN.GOLDEN_CASES))
def test_use_case_shim_matches_pre_refactor_golden(name):
    params = _REGEN.GOLDEN_CASES[name]
    with open(os.path.join(_GOLDEN_DIR, f"{name}_seed1.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    runner = getattr(usecases, f"run_{name}")
    fresh = json.loads(json.dumps(_REGEN.jsonify(runner(**params))))
    assert fresh == golden, (
        f"{name} runner output drifted from the pre-refactor golden; "
        "see tests/golden/regen.py"
    )


#: sha256 of ``json.dumps(jsonify(result), sort_keys=True)`` at the golden
#: pins with seeds other than the golden one.  uc1 is left out: its cost
#: moves with the seed.
_SEED_DIGESTS = {
    ("uc2", 7): "4dfe291f5aa6b134231990c7f08d8543f37bfc126ff290c889f82e0fa0dc6925",
    ("uc2", 1234): "e33422464c57c5ae27d28bd1ca444be692f68651f159694414acdf7a660b44aa",
    ("uc3", 7): "d65a59cfb60e5e505ade55d5ca60184714d23f8b9aaea8e111e4cf28c4aa4750",
    ("uc3", 1234): "158e98af9d0396f5597fbfecbf2575922cf6f1e0fd95d6af85b99737a55f66ea",
    ("uc4", 7): "4469eeb91a65eac89baca5d9743d6ec57b9867cf63248fde04604d385fd34b22",
    ("uc4", 1234): "1f2d7335de8b72dfbe5e2f20abdaa7eb3e535ca51e40cb5e22bfbac1851c9dd2",
    ("uc5", 7): "0b1b1082275efd7a1687ba08f691fa57c7a074813328cac21af494d42c5743db",
    ("uc5", 1234): "c0b4c28d09b0f7e4ead11344d6633330d8f8a15e2abf031bde1d17f115a67fd9",
    ("uc6", 7): "02f48ccf98a43bf653873258fb4df87535b3e5b6aeebb2f16242de35cf09d37d",
    ("uc6", 1234): "afa681ad9279f7e57b939c11317ddefa322333987367d583028d4aa391936e3f",
    ("uc7", 7): "39037a3d33a5e1fed90843aa4e5ffe3af970e07562f07d02e4e65868fccb4b36",
    ("uc7", 1234): "c956ec417f35584f1835952e288e208833831d360317d36db168439508390368",
}


@pytest.mark.parametrize("name,seed", sorted(_SEED_DIGESTS))
def test_use_case_matches_digest_at_other_seeds(name, seed):
    params = dict(_REGEN.GOLDEN_CASES[name], seed=seed)
    result = getattr(usecases, f"run_{name}")(**params)
    encoded = json.dumps(_REGEN.jsonify(result), sort_keys=True).encode()
    assert hashlib.sha256(encoded).hexdigest() == _SEED_DIGESTS[(name, seed)]
