"""Tests of the benchmark itself, at reduced workload sizes.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses

import pytest

import checks
import driver
import spans
import workloads

SMALL = {"abc-line": 0.05, "soft-enum": 0.01, "lattice-build": 0.1, "lattice-query": 0.05}


def build(name, seed, tmp_path):
    if name == "lattice-build":
        return workloads.lattice_build(seed, SMALL[name], workdir=tmp_path)
    return workloads.BUILDERS[name](seed, SMALL[name])


def inputs(wl, tmp_path):
    """Everything the program receives: op arguments and generated files."""
    files = sorted((p.name, p.read_text()) for p in tmp_path.iterdir())
    args = [(op.name, checks.canonical(op.args).replace(str(tmp_path), "<dir>")) for op in wl.ops]
    return args, files


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_seed_determines_inputs(name, tmp_path):
    dirs = [tmp_path / str(i) for i in range(3)]
    for d in dirs:
        d.mkdir()
    first = inputs(build(name, 7, dirs[0]), dirs[0])
    again = inputs(build(name, 7, dirs[1]), dirs[1])
    other = inputs(build(name, 8, dirs[2]), dirs[2])
    assert first == again
    assert first != other


def test_self_time_on_nested_spans():
    # [parent, name, op, start, end]; span ids are list positions
    recorded = [
        [-1, "cli.main", 0, 0.0, 10.0],
        [0, "heights.scan_abc", 0, 1.0, 4.0],
        [1, "arith.factorize", 0, 1.5, 2.0],
        [1, "arith.factorize", 0, 2.5, 3.5],
        [0, "heights.scan_vojta_gap", 0, 6.0, 7.0],
        [-1, "monoids.member", 1, 11.0, 12.0],
    ]
    assert spans.self_times(recorded) == pytest.approx([6.0, 1.5, 0.5, 1.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    recorded = [[-1, "a.f", 0, 0.0, 10.0], [0, "a.g", 0, 2.0, 6.0], [0, "a.h", 0, 4.0, 8.0]]
    assert spans.self_times(recorded)[0] == pytest.approx(4.0)


def traced_layers(name, tmp_path):
    wl = build(name, 3, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        outcomes = [checks.execute(op) for op in wl.ops]
    finally:
        tracer.uninstall()
    return outcomes, spans.layer_metrics(tracer)


def test_wrappers_catch_rebound_names(tmp_path):
    import constel.arith
    import constel.softpoints

    original = constel.arith.factorize
    _, soft = traced_layers("soft-enum", tmp_path)
    assert soft["arith.factorize.calls"] > 0  # bound in softpoints and reached via cli.radical
    assert soft["softpoints.enumerate_soft_points.calls"] > 0
    assert soft["cli.main.calls"] == 4
    assert constel.softpoints.factorize is original  # uninstall restored every binding

    _, abc = traced_layers("abc-line", tmp_path)
    assert abc["heights.scan_abc.calls"] == 3
    assert abc["heights.scan_vojta_gap.calls"] == 1
    assert abc["monoids.member.calls"] == 0
    assert abc["monoids.member.p50_us"] == 0.0


def test_lattice_layers_and_raised_counts(tmp_path):
    _, build_m = traced_layers("lattice-build", tmp_path)
    assert build_m["monoids.LatticeMonoid.calls"] > 0
    assert build_m["monoids.member.calls"] > 0
    # a ray outside every cone leaves monoids (min_multiple -> multiplicity_at)
    # and then firmaments (multiplicity_at -> the benchmark)
    assert build_m["monoids.raised"] == build_m["firmaments.raised"] > 0
    _, query = traced_layers("lattice-query", tmp_path)
    assert query["monoids.member.calls"] > 0
    assert query["monoids.LatticeMonoid.calls"] == 0  # tables and objects were built in set-up
    for fn in ("multiplicity_at", "firm_integral_test", "induced_membership", "morphism_check"):
        assert query[f"firmaments.{fn}.calls"] > 0
    assert query["curves.classify.calls"] > 0


def test_traced_digests_equal_untraced(tmp_path):
    wl = build("lattice-query", 3, tmp_path)
    plain = [checks.execute(op).digest for op in wl.ops]
    traced, _ = traced_layers("lattice-query", tmp_path)
    assert [o.digest for o in traced] == plain


def test_wrong_reference_digest_is_a_failed_op(tmp_path):
    wl = build("lattice-build", 3, tmp_path)
    names = [op.name for op in wl.ops]
    passes = [[checks.execute(op) for op in wl.ops] for _ in range(2)]
    reference = [o.digest for o in passes[0]]
    assert checks.count_failures(names, passes, reference)[:2] == (2 * len(names), 0)
    reference[5] = "0" * checks.DIGEST_CHARS
    attempted, failed, reasons = checks.count_failures(names, passes, reference)
    assert (attempted, failed) == (2 * len(names), 2)
    assert all(names[5] in r for r in reasons)


def test_changed_output_without_reference_is_a_failed_op(tmp_path):
    wl = build("abc-line", 3, tmp_path)
    names = [op.name for op in wl.ops]
    first = [checks.execute(op) for op in wl.ops]
    second = [dataclasses.replace(o) for o in first]
    second[1].digest = "f" * checks.DIGEST_CHARS
    assert checks.count_failures(names, [first, second], None)[1] == 1


def test_expected_typed_outcome_is_not_a_failure():
    from constel import ExponentMap, RayUnsupportedError, base_firmament

    firm = base_firmament([ExponentMap(((2,), (0,)))])  # cone is the x axis only
    expected = checks.Op("outside", "multiplicity_at", (firm, (0, 1)), (RayUnsupportedError,))
    unexpected = checks.Op("outside", "multiplicity_at", (firm, (0, 1)))
    assert checks.execute(expected).ok
    bad = checks.execute(unexpected)
    assert not bad.ok and "RayUnsupportedError" in bad.detail
    assert checks.execute(expected).digest == bad.digest


def test_cli_exit_code_is_in_the_digest(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("dim 2\n2; (2,0)\n")
    argv = ("firmament", str(path), "--rays", "(1,0);(0,1)")  # (0,1) is unsupported: exit 3
    expected = checks.execute(checks.Op("a", checks.run_cli, (argv,), (3,)))
    unexpected = checks.execute(checks.Op("b", checks.run_cli, (argv,)))
    assert expected.ok and not unexpected.ok
    assert expected.digest == unexpected.digest
    supported = checks.execute(checks.Op("c", checks.run_cli, (argv[:3] + ("(1,0)",),)))
    assert supported.ok and supported.digest != expected.digest


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_oracle_cross_check_agrees(name, tmp_path):
    assert build(name, 3, tmp_path).oracle() == []


def test_tail_percentile_rule():
    assert driver.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    xs = [float(i) for i in range(100)]
    value, pct = driver.tail(xs)
    assert value == 89.0 and pct == 90.0
    assert sum(x > value for x in xs) == 10


def test_benchmark_json_declares_exactly_the_measured_metrics():
    import json

    spec = json.loads((driver.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.BUILDERS)
    per_layer = set(spans.layer_metrics(spans.Tracer())) | {"trace_overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    end_to_end = {"wall_s", "setup_s", "op_p50_ms", "op_tail_ms", "cpu_s", "peak_rss_mb"}
    assert {m["name"] for m in spec["end_to_end"]} == end_to_end
