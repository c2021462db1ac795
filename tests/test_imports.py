"""What `import constel` and each CLI command load, and the public namespace
they leave: a submodule loads on the first use of one of its names, and a
command loads only the layers it runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import constel

SRC = Path(constel.__file__).parents[1]
DATA = Path(__file__).parent / "data"

# the public names by defining module, as `import constel` has exported them
EXPORTS = {
    "arith": [
        "INFINITY", "Factorization", "ProjectivePointQ", "canonicalize", "factorize",
        "is_n_powerful", "is_prime", "powerful_numbers", "radical", "valuation",
    ],
    "curves": [
        "Kappa", "KodairaClass", "MultiplicityProfile", "Prediction", "arithmetic_prediction",
        "classify", "constellation_degree", "curve_iitaka_dimension", "delta_from_fibers",
        "minimal_general_type_profiles", "parse_profile",
    ],
    "errors": [
        "BoundExceededError", "ConstelError", "InfiniteGapsError", "MathDomainError", "ParseError",
        "PointOnBoundaryError", "RayUnsupportedError", "ResourceLimitError", "UnsupportedFieldError",
    ],
    "firmaments": [
        "ExponentMap", "Firmament", "ReductionDatum", "base_firmament", "face_restriction",
        "firm_integral_test", "induced_membership", "morphism_check", "multiplicity_at",
        "supported_constellation",
    ],
    "heights": [
        "AbcTriple", "CountingReport", "Form", "FormDivisor", "HeightReport", "abc_quality",
        "counting_function", "log_discriminant_term", "naive_height", "scan_abc",
        "scan_vojta_gap", "vojta_gap",
    ],
    "monoids": ["LatticeMonoid", "RayRestriction", "gaps", "min_multiple", "monoid", "ray_restriction"],
    "softpoints": [
        "DeltaSupport3", "GeneralDeltaQ", "P1PointQ", "campana_abc_bound_check",
        "campana_abc_bound_exact", "enumerate_soft_points", "is_soft_integral_3pt",
        "is_soft_integral_general", "is_soft_integral_weighted",
    ],
}

# the constel modules each command loads, the package and the CLI aside
BASE = ["arith", "errors"]
LOADS = {
    "abc-scan": (["abc-scan", "--max-c", "200"], [*BASE, "heights", "_pool"]),
    "vojta-gap": (["vojta-gap", "--eps-prime", "0.2", "--max-c", "200"], [*BASE, "heights", "_pool"]),
    "enumerate": (["enumerate", "--delta", "2,2,2", "--max", "1000"], [*BASE, "softpoints", "_pool"]),
    "classify": (["classify", "g=0;m=2,3,7"], [*BASE, "curves"]),
    "minimal-profiles": (["minimal-profiles", "--max-marks", "4"], [*BASE, "curves"]),
    "firmament": (
        ["firmament", str(DATA / "firm_example8.txt"), "--rays", "(1,0);(0,1);(1,1)"],
        [*BASE, "firmaments", "monoids", "_linalg"],
    ),
}


def python(script, *flags):
    """The stdout of `script` run by a fresh interpreter that imports constel
    from this checkout's sources."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = "sorted(m for m in sys.modules if m.startswith('constel.'))"


def test_import_constel_loads_no_submodule():
    bound = "[n for n in constel.__all__ if n in vars(constel)]"
    script = f"import json, sys, constel; print(json.dumps([{LOADED}, {bound}]))"
    assert json.loads(python(script)) == [[], []]


@pytest.mark.parametrize("command", LOADS)
def test_command_loads_only_its_layers(command):
    argv, modules = LOADS[command]
    script = f"""
import contextlib, io, json, sys
from constel import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({argv!r}) == 0
print(json.dumps({LOADED}))
"""
    assert json.loads(python(script)) == sorted(f"constel.{m}" for m in ["cli", *modules])


def test_cli_does_not_load_pathlib():
    # without `site`, nothing else preloads pathlib
    assert python("import sys, constel.cli; print('pathlib' in sys.modules)", "-S").split() == ["False"]


def test_all_is_pinned():
    assert constel.__all__ == sorted([*EXPORTS, *(n for names in EXPORTS.values() for n in names)])
    assert len(constel.__all__) == 74


def test_star_import_binds_the_defining_objects():
    namespace = {}
    exec("from constel import *", namespace)
    for module, names in EXPORTS.items():
        owner = sys.modules[f"constel.{module}"]
        assert namespace[module] is owner
        for name in names:
            assert namespace[name] is getattr(owner, name), name


def test_first_use_stores_the_name():
    script = """
import json, constel
print(json.dumps([n for n in constel.__all__ if getattr(constel, n) is vars(constel).get(n)]))
"""
    assert json.loads(python(script)) == constel.__all__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'constel'.*'nope'"):
        constel.nope
    assert "__all__" in dir(constel)
    assert set(constel.__all__) <= set(dir(constel))
