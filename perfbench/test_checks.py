"""Each workload's checker passes the program's real output and reports a
failure for a perturbed copy of it."""

import copy

import numpy as np
import pytest

import checks
import workloads


def _sweep_output(factory, tmp_path_factory):
    workload = factory(seed=3, workdir=tmp_path_factory.mktemp(factory.__name__))
    assert workload.run_pass().failed == 0
    return workload, checks.read_sweep(workload.out)


@pytest.fixture(scope="module")
def fig2(tmp_path_factory):
    return _sweep_output(workloads.fig2, tmp_path_factory)


@pytest.fixture(scope="module")
def surface(tmp_path_factory):
    return _sweep_output(workloads.surface, tmp_path_factory)


def _set_energy(out, i, delta):
    """Shift record i's energy by delta in both records.csv and records.json."""
    out = copy.deepcopy(out)
    value = repr(float(out["csv"][i + 1][checks.ENERGY]) + delta)
    out["csv"][i + 1][checks.ENERGY] = value
    out["json"]["records"][i][checks.ENERGY] = value
    return out


def test_sweep_without_records_fails(tmp_path):
    workload = workloads.fig2(seed=3, workdir=tmp_path)
    assert workload.check() == ["the sweep wrote no records.csv or no records.json"]


def test_real_outputs_pass(fig2, surface):
    for workload, _ in (fig2, surface):
        assert workload.check() == []


@pytest.mark.parametrize("which", ["fig2", "surface"])
def test_energy_off_by_1e6_fails(which, request):
    workload, out = request.getfixturevalue(which)
    bad = _set_energy(out, workload.sample[0], 1e-6)
    assert any("energy" in f and "reference" in f for f in checks.check_sweep(bad, workload.sample))


def test_csv_and_json_disagreeing_fails(fig2):
    workload, out = fig2
    bad = copy.deepcopy(out)
    unsampled = next(i for i in range(len(bad["json"]["records"])) if i not in workload.sample)
    value = float(bad["json"]["records"][unsampled][checks.ALIGNMENT])
    bad["json"]["records"][unsampled][checks.ALIGNMENT] = repr(float(np.nextafter(value, 2.0)))
    assert any("disagree" in f for f in checks.check_sweep(bad, workload.sample))


def test_populations_not_summing_to_one_fails(fig2):
    workload, out = fig2
    bad = copy.deepcopy(out)
    col = bad["csv"][0].index("pop_0")
    for doc_row in (bad["csv"][6], bad["json"]["records"][5]):
        doc_row[col] = repr(float(doc_row[col]) + 1e-9)
    assert any("populations sum" in f for f in checks.check_sweep(bad, workload.sample))


def test_shifted_or_missing_drop_fails(fig2):
    _, out = fig2
    doc = copy.deepcopy(out["json"])
    doc["drops"][1]["sigma"] = repr(float(doc["drops"][1]["sigma"]) + 0.1)
    assert checks.check_drops(doc, 1.5)
    doc["drops"].pop()
    assert checks.check_drops(doc, 1.5)


def test_non_minimum_listed_as_minimum_fails(surface):
    _, out = surface
    bad = copy.deepcopy(out)
    row = bad["csv"][1 + 70]      # an interior point that is no minimum
    bad["json"]["minima"].append({"P": row[checks.P], "sigma": row[checks.SIGMA],
                                  "energy": row[checks.ENERGY]})
    assert any("is not a strict" in f for f in checks.check_minima(bad))


def test_missing_minimum_fails(surface):
    _, out = surface
    bad = copy.deepcopy(out)
    bad["json"]["minima"].pop()
    assert any("was not reported" in f for f in checks.check_minima(bad))


@pytest.fixture(scope="module")
def points(tmp_path_factory):
    workload = workloads.Points(seed=3, workdir=tmp_path_factory.mktemp("points"))
    p = workload.run_pass()
    assert p.failed == 3   # P = nan, P = inf and sigma = inf pass PulseSpec today
    return workload


def test_points_checker(points):
    assert points.check() == []
    i = points.sample[0]
    for key, value in (("energy", points.results[i]["energy"] + 1e-6),
                       ("leak", 2 * checks.LEAK_TOL),
                       ("error", "ValueError('boom')")):
        bad = copy.deepcopy(points.results)
        bad[i][key] = value
        assert checks.check_points(bad, points.sample), key


def test_oracle_checker():
    import rotorkick as rk
    pulse = rk.PulseSpec(strength=3.0, sigma=2.0)
    basis = rk.converge_basis(pulse, 0)
    spec = rk.propagate_spectral(pulse, 0, basis)
    good = {"p": 3.0, "sigma": 2.0, "spectral": spec.final.coefficients,
            "rk4": spec.final.coefficients.copy(), "norm_drift": spec.norm_drift}
    assert checks.check_oracle([good]) == []
    bad = dict(good, rk4=good["rk4"] + np.eye(basis.dim)[1] * 1e-6)
    assert len(checks.check_oracle([bad])) >= 2     # off from spectral and from the reference
    assert checks.check_oracle([dict(good, norm_drift=1e-11)])
