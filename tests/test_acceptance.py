"""End-to-end acceptance runs: one verification suite per numbered criterion.

Each test executes the corresponding harness suite at desk scale
(L = 40, N in {1024, 2048, 4096}) with every tolerance pinned inside the
suite itself, prints one PASS/FAIL line, and fails if any case failed.
"""

import pytest

from fracspace.harness import SuiteConfig, run_suite

CRITERIA = [
    (1, "frac-laplacian-xcheck",
     "spectral vs singular-integral fractional Laplacian, 1e-3, decreasing in N"),
    (2, "c-sigma",
     "normalizing constant: sign, homogeneity 1e-6, oracle agreement 1e-8"),
    (3, "bessel-kernel",
     "closed form, unit mass, positivity, integrability threshold, "
     "inverse transform of the symbol 1e-6"),
    (4, "schur-constants",
     "quadrature vs closed form 1e-8; operator probe below the bound"),
    (5, "reflection-extension",
     "coefficients, polynomial reproduction 1e-9, restriction, duality 1e-8"),
    (6, "traces",
     "polynomial traces, trace/coextension identity, projections, 1e-8; "
     "one-sided mollification error shrinks"),
    (7, "pointwise-multiplier",
     "indicator norm-ratio sups stable 10%; derivative commutation 1e-6"),
    (8, "hardy-gn",
     "Hardy and interpolation-inequality sups stable; scale invariance 1e-6"),
    (9, "resolvent-sectoriality",
     "closed-form ODEs 1e-8, residual 1e-6, contraction, probe stable 5%, "
     "certified, <= sec(phi_max)"),
    (10, "fractional-domains",
     "fractional power vs causal oracle 1e-10; domain-norm bands stable 10%; "
     "theta -> 1 band gap shrinks; theta -> 1 band gap within 1e-2"),
    (11, "integration-by-parts",
     "closed-form residual 1e-8; random pairs 1e-7 relative"),
]


@pytest.mark.parametrize("number, suite, summary",
                         CRITERIA, ids=[c[1] for c in CRITERIA])
def test_acceptance_criterion(number, suite, summary):
    report = run_suite(SuiteConfig(suite=suite))
    n_pass = sum(c["pass"] for c in report.cases)
    status = "PASS" if report.passed else "FAIL"
    print(f"criterion {number:2d} [{status}] {suite}: {n_pass}/{len(report.cases)} "
          f"cases ({summary}) [{report.runtime_s:.1f}s]")
    failed = [c for c in report.cases if not c["pass"]]
    assert not failed, f"criterion {number} ({suite}) failed cases: {failed}"
    # no suppressed RuntimeWarning, e.g. none of periodization: every input
    # decays before the grid ends
    assert report.warnings == {}
    assert len(report.refinement) >= 3
