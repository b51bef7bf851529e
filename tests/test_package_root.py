"""The package root's public surface, and what each CLI verb loads.

The root exports these 71 names and, after a bare `import framekit`, these
seven submodules; `from framekit import *` binds exactly both sets.  A CLI
job loads only the domain module its verb uses, beyond frames, numerics,
errors and io.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

EXPORTS = {
    "numerics": ["PNormInterval", "SpectralReport", "Tolerance", "herm_sqrt", "pnorm_estimate",
                 "principal_power", "spectral"],
    "frames": ["FramePair", "FrameReport", "canonical_dual", "classify", "common_dual", "dilate",
               "direct_sum", "frame_idempotent", "frame_operator", "interpolate_parseval",
               "is_dual", "is_orthogonal", "make_dual_from_params", "parsevalize",
               "similarity_detect", "tensor_product", "verify"],
    "ovf": ["OvfPair", "OvfReport", "canonical_dual_ovf", "compose_ovf", "dilate_ovf",
            "duality_relation", "extend_tight_ovf", "factorize_against_onb", "onb_blocks",
            "ovf_bridge", "ovf_bridge_inverse", "ovf_operators", "right_similarity_detect",
            "tensor_ovf", "verify_ovf", "weighted_onb_bessel_check"],
    "constructors": ["GroupTable", "Representation", "check_group_invariance", "circular_general",
                     "circular_kl", "group_frame", "left_regular", "synthesize_representation"],
    "analysis": ["IterationTrace", "PerturbCertificate", "complex_to_real", "extend_tight_append",
                 "extend_tight_minimal", "formulas_report", "iterate_reconstruct",
                 "perturb_normsum", "perturb_quadratic", "perturb_sampled", "real_to_complex",
                 "span_characterization", "trace_formula", "weighted_onb_check"],
    "pframes": ["PFramePair", "banach_formulas", "four_laws_check", "p_canonical_dual",
                "p_orthonormal_check", "p_verify", "paley_wiener_check", "project_line_l4",
                "riesz_p_bounds"],
}
SUBMODULES = ["numerics", "frames", "ovf", "constructors", "analysis", "pframes", "errors"]
DOMAIN = {"ovf", "constructors", "analysis", "pframes"}
SRC = Path(__file__).resolve().parent.parent / "src"


def test_export_count():
    assert sum(len(names) for names in EXPORTS.values()) == 71


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_export_resolves_to_its_module(module, name):
    import framekit

    owner = importlib.import_module(f"framekit.{module}")
    ns = {}
    exec(f"from framekit import {name}", ns)
    assert getattr(framekit, name) is getattr(owner, name)
    assert ns[name] is getattr(owner, name)


def test_version():
    import framekit

    ns = {}
    exec("from framekit import __version__", ns)
    assert framekit.__version__ == ns["__version__"] == "0.1.0"


def test_bare_import_reaches_submodules():
    code = ("import framekit, types; "
            f"print(all(isinstance(getattr(framekit, m), types.ModuleType) for m in {SUBMODULES!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "True"


def test_star_import_binds_exports_and_submodules():
    ns = {}
    exec("from framekit import *", ns)
    ns.pop("__builtins__")
    expected = {n for names in EXPORTS.values() for n in names} | set(SUBMODULES)
    assert set(ns) == expected


def test_unknown_attribute_raises():
    import framekit

    with pytest.raises(AttributeError):
        framekit.no_such_name
    with pytest.raises(ImportError):
        exec("from framekit import no_such_name", {})


# --- what a CLI job loads --------------------------------------------------------

_CHILD = """\
import json, runpy, sys
out, argv = sys.argv[1], sys.argv[2:]
sys.argv = ["framekit"] + argv
try:
    runpy.run_module("framekit.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
with open(out, "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""

_DOCS = {
    "pair.json": {"field": "real", "dim": 2, "count": 3,
                  "x": [[1, 0], [0, 1], [1, 1]], "tau": [[1, 0], [0, 1], [1, 1]]},
    "pair.ovf": {"field": "real", "m": 2, "d": 1, "n": 2,
                 "A": [[[1, 0]], [[0, 1]]], "psi": [[[1, 0]], [[0, 1]]]},
    "pair.pframe": {"p": 3, "field": "real", "dim": 2, "count": 2,
                    "f": [[1, 0], [0, 1]], "tau": [[2, 0], [0, 2]]},
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _loaded_domain_modules(tmp_path, argv):
    for name, doc in _DOCS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    out = tmp_path / "modules.json"
    subprocess.run([sys.executable, "-c", _CHILD, str(out), *argv], cwd=tmp_path, env=_env(),
                   capture_output=True, check=True)
    result = json.loads(out.read_text())
    assert result["code"] == 0
    loaded = set(result["modules"])
    assert {"framekit.frames", "framekit.numerics", "framekit.errors", "framekit.io"} <= loaded
    return {m for m in DOMAIN if f"framekit.{m}" in loaded}


@pytest.mark.parametrize("argv,expected", [
    (["verify", "pair.json"], set()),
    (["ovf", "verify", "pair.ovf"], {"ovf"}),
    (["pframe", "verify", "pair.pframe"], {"pframes"}),
    (["analyze", "formulas", "pair.json"], {"analysis"}),
    (["construct", "circular", "--k", "3", "--l", "3"], {"constructors"}),
])
def test_cli_verb_loads_only_its_layer(tmp_path, argv, expected):
    assert _loaded_domain_modules(tmp_path, argv) == expected
