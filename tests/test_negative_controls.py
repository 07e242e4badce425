"""Negative controls: each check must pass on the exact model and fail once a
named closed-form term is scaled by (1 + delta).

A row holds one argv, the check it reads and the term it perturbs.  It
passes at delta = 0 and records its detection threshold: the smallest power
of ten that flips the check (it does not flip at a tenth of it).  The
semi-flat rows also fail at delta = 1e-9.  A check that no delta flips
would be an identity.
"""

import contextlib
import io
import json

import pytest

from syzlab import calabi as cal
from syzlab import cli
from syzlab import semiflat as sf
from syzlab import slag

# (check, argv, module, term, threshold); eps over float64's range, where the
# reports go through the normal form and its scale
_ROWS = [(check, words + ["--k", "1", "--eps", eps], module, term, 1e-12)
         for check, words, module, term in (
             ("curvature_scale", ["semiflat", "curvature"], sf, "RM_R2"),
             ("pi_scale", ["slag", "pi-decay"], slag, "II_R"))
         for eps in ("1e-300", "1", "1e300")]


def _check(argv, name):
    """(exit code, the named check of the report)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv + ["--no-timestamp"])
    return code, {c["name"]: c for c in json.loads(out.getvalue())["checks"]}[name]


@pytest.mark.parametrize("name,argv,module,term,threshold", _ROWS,
                         ids=[f"{row[0]}-{row[1][-1]}" for row in _ROWS])
def test_check_fails_on_a_scaled_term(monkeypatch, name, argv, module, term, threshold):
    exact = getattr(module, term)
    for delta, code in ((0.0, 0), (threshold / 10.0, 0), (threshold, 3), (1e-9, 3)):
        monkeypatch.setattr(module, term, exact * (1.0 + delta))
        got, check = _check(argv, name)
        assert (got, check["passed"]) == (code, code == 0), delta


# the C = 2 pi/ell row of the metric jet's g patterns, dg and ddg left exact:
# the checks read the g that the jet builds from its own coefficients
_JET_ROWS = [(check, words + ["--k", "1", "--eps", eps], 1e-11)
             for check, words in (("curvature_scale", ["semiflat", "curvature"]),
                                  ("pi_scale", ["slag", "pi-decay"]))
             for eps in ("1e-300", "1", "1e300")]


@pytest.mark.parametrize("name,argv,threshold", _JET_ROWS,
                         ids=[f"{row[0]}-{row[1][-1]}" for row in _JET_ROWS])
def test_check_fails_on_a_scaled_jet_metric(monkeypatch, name, argv, threshold):
    exact = sf._PATTERNS
    for delta, code in ((0.0, 0), (threshold / 10.0, 0), (threshold, 3), (1e-9, 3)):
        patterns = exact.copy()
        patterns[2] *= 1.0 + delta
        monkeypatch.setattr(sf, "_PATTERNS", patterns)
        got, check = _check(argv, name)
        assert (got, check["passed"]) == (code, code == 0), delta


def _scaled_tau_coefficient(real, delta):
    """_tau_coefficients with A13 = a_tau c, non-zero for every tau, times (1 + delta)."""
    return lambda m, ell: real(m, ell)[:3] + (real(m, ell)[3] * (1.0 + delta),)


def _scaled_psi_shift(real, delta):
    """transport with the cocycle's shift of psi times (1 + delta)."""
    def transport(m, pt, gamma):
        ell, psi, xi1, xi2 = real(m, pt, gamma)
        return ell, pt[1] + (psi - pt[1]) * (1.0 + delta), xi1, xi2
    return transport


# (check, README argv, patched calabi function, its scaled replacement, threshold)
_HKROT_ROWS = [(check, ["hkrot", "--k", k, "--tau", tau], term, scaled, threshold)
               for k, tau, rotation in (("1", "0+1i", 1e-8), ("2", "-1/2+2i", 1e-7))
               for check, term, scaled, threshold in (
                   ("rotation_residual", "_tau_coefficients", _scaled_tau_coefficient,
                    rotation),
                   ("lattice_defect", "transport", _scaled_psi_shift, 1e-9))]


@pytest.mark.parametrize("name,argv,term,scaled,threshold", _HKROT_ROWS,
                         ids=[f"{row[0]}-{row[1][-1]}" for row in _HKROT_ROWS])
def test_hkrot_check_fails_on_a_scaled_term(monkeypatch, name, argv, term, scaled, threshold):
    exact = getattr(cal, term)
    for delta, code in ((0.0, 0), (threshold / 10.0, 0), (threshold, 3)):
        monkeypatch.setattr(cal, term, scaled(exact, delta))
        got, check = _check(argv, name)
        assert (got, check["passed"]) == (code, code == 0), delta
