"""Acceptance suite: the contract checks, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Certificates for the full corpus (all part multisets
with at most 4 parts, each part at most 6; 209 sets) are built once per
session and shared by the criteria that need them.
"""

import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from denumerant import (
    bernoulli_higher,
    bernoulli_poly,
    build_explicit,
    build_recursive,
    count_dp,
    lcm_of,
    r_coeffs_recursive,
    v1_explicit,
)
from helpers import higher_bernoulli_series, natural_average

CORPUS = tuple(
    parts
    for m in range(1, 5)
    for parts in combinations_with_replacement(range(1, 7), m)
)


def _announce(num: int, title: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else f"  first: {failures[0]}"
    print(f"criterion {num:2d} [{status}] {title}{detail}")


@pytest.fixture(scope="module")
def corpus_certs():
    built = {}
    spent = {"explicit": 0.0, "recursive": 0.0}
    for parts in CORPUS:
        t0 = time.perf_counter()
        e = build_explicit(parts)
        spent["explicit"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        r = build_recursive(parts)
        spent["recursive"] += time.perf_counter() - t0
        built[parts] = (e, r)
    return built, spent


@pytest.fixture(scope="module")
def corpus_tables():
    t0 = time.perf_counter()
    tables = {}
    for parts in CORPUS:
        # m points in every residue class mod tau: agreement there is a proof
        tau = lcm_of(parts)
        tables[parts] = count_dp(parts, max(3 * tau + 10, len(parts) * tau - 1))
    return tables, time.perf_counter() - t0


def test_criterion_01_explicit_matches_oracle(corpus_certs, corpus_tables):
    certs, build_spent = corpus_certs
    tables, oracle_spent = corpus_tables
    start = time.perf_counter()
    failures = []
    for parts in CORPUS:
        cert = certs[parts][0]
        table = tables[parts]
        for n in range(table.max_n + 1):
            if cert.count(n) != table[n]:
                failures.append((parts, n, cert.count(n), table[n]))
                break
    elapsed = time.perf_counter() - start + build_spent["explicit"] + oracle_spent
    _announce(1, f"explicit path matches DP oracle on {len(CORPUS)} sets "
                 f"({elapsed:.1f}s incl. builds)", failures)
    assert not failures
    assert elapsed < 300


def test_criterion_02_recursive_matches_oracle(corpus_certs, corpus_tables):
    certs = corpus_certs[0]
    tables = corpus_tables[0]
    failures = []
    for parts in CORPUS:
        cert = certs[parts][1]
        table = tables[parts]
        for n in range(table.max_n + 1):
            if cert.count(n) != table[n]:
                failures.append((parts, n, cert.count(n), table[n]))
                break
    _announce(2, f"recursive path matches DP oracle on {len(CORPUS)} sets", failures)
    assert not failures


def test_criterion_03_paths_agree_at_table_level(corpus_certs):
    certs = corpus_certs[0]
    failures = []
    for parts in CORPUS:
        explicit, recursive = certs[parts]
        for j, (fa, fb) in enumerate(zip(explicit.coeffs, recursive.coeffs)):
            if fa != fb:
                failures.append((parts, j + 1))
                break
    _announce(3, "coefficient tables identical across paths", failures)
    assert not failures


def test_criterion_04_fundamental_recurrence(corpus_certs):
    certs = corpus_certs[0]
    failures = []
    for parts in CORPUS:
        if len(parts) == 1:
            continue
        cert = certs[parts][0]
        prev = certs[parts[:-1]][0]
        dm = parts[-1]
        tau = cert.master_period
        for rho in range(2 * tau):
            lhs = cert.value(Fraction(rho, 2)) - cert.value(Fraction(rho - 2 * dm, 2))
            rhs = prev.value(Fraction(rho - dm, 2))
            if lhs != rhs:
                failures.append((parts, str(Fraction(rho, 2)), str(lhs), str(rhs)))
                break
    _announce(4, "one-part recurrence at every half-lattice point of a period", failures)
    assert not failures


def test_criterion_05_parity_symmetry(corpus_certs):
    certs = corpus_certs[0]
    failures = []
    for parts in CORPUS:
        cert = certs[parts][0]
        sign = -1 if len(parts) % 2 == 0 else 1
        tau = cert.master_period
        natural = sum(parts) % 2
        for t in range(natural, 4 * tau + 1, 2):
            if cert.value(Fraction(-t, 2)) != sign * cert.value(Fraction(t, 2)):
                failures.append((parts, str(Fraction(t, 2))))
                break
        # off the natural grid the certificate vanishes, at s and at -s
        for t in range(1 - natural, 4 * tau + 1, 2):
            if cert.value(Fraction(t, 2)) or cert.value(Fraction(-t, 2)):
                failures.append(("off-grid", parts, str(Fraction(t, 2))))
                break
    _announce(5, "parity symmetry on the natural grid and zero off it, |s| <= 2*lcm",
              failures)
    assert not failures


def test_criterion_06_forced_zeros(corpus_certs):
    certs = corpus_certs[0]
    failures = []
    for parts in CORPUS:
        m = len(parts)
        cert = certs[parts][0]
        if m % 2 == 0:
            points = [Fraction(2 * k, 2) for k in range(m // 2)]
        else:
            points = [Fraction(2 * k + 1, 2) for k in range((m - 1) // 2)]
        for s in points:
            if cert.value(s) != 0:
                failures.append((parts, str(s), str(cert.value(s))))
                break
    _announce(6, "forced symmetry zeros at the small arguments", failures)
    assert not failures


def test_criterion_07_polynomial_part_consistency(corpus_certs):
    failures = []
    big_grid = [
        parts
        for m in range(1, 6)
        for parts in combinations_with_replacement(range(1, 7), m)
    ]
    for parts in big_grid:
        if v1_explicit(parts) != r_coeffs_recursive(parts):
            failures.append(("closed-vs-recursive", parts))
    for parts in CORPUS:
        consts = v1_explicit(parts)
        parity = sum(parts) % 2
        for cert in corpus_certs[0][parts]:
            for j in range(len(parts)):
                if natural_average(cert.coeffs[j], parity) != consts[j]:
                    failures.append(("period-average", parts, j + 1))
                    break
    _announce(7, f"polynomial part: both routes on {len(big_grid)} sets, "
                 "period averages on the certificate corpus", failures)
    assert not failures


def test_criterion_08_higher_bernoulli_identities():
    failures = []
    s_values = [Fraction(0), Fraction(1, 2), Fraction(-2, 3)]
    for m in range(1, 4):
        for parts in combinations_with_replacement(range(1, 5), m):
            for n in range(9):
                for s in s_values:
                    if bernoulli_higher(n, s, parts) != higher_bernoulli_series(n, s, parts):
                        failures.append(("series", parts, n, str(s)))
    for parts in [(1,), (2, 3), (1, 2, 4), (3, 3)]:
        neg = tuple(-d for d in parts)
        for n in range(7):
            for s in s_values:
                if bernoulli_higher(n, s, neg) != bernoulli_higher(n, s + sum(parts), parts):
                    failures.append(("reflection", parts, n, str(s)))
    for n in range(9):
        for k in range(1, 7):
            for x in [Fraction(0), Fraction(1, 2), Fraction(1, 3)]:
                lhs = sum(bernoulli_poly(n, x + Fraction(r, k)) for r in range(k))
                if lhs != Fraction(k) ** (1 - n) * bernoulli_poly(n, k * x):
                    failures.append(("multiplication", n, k, str(x)))
    _announce(8, "higher-order values vs series oracle, reflection, multiplication", failures)
    assert not failures


def test_criterion_09_closed_form_count_families():
    failures = []
    c12 = build_explicit((1, 2))
    c11 = build_explicit((1, 1))
    r12 = build_recursive((1, 2))
    r11 = build_recursive((1, 1))
    for n in range(201):
        if not (c12.count(n) == r12.count(n) == n // 2 + 1):
            failures.append(((1, 2), n))
        if not (c11.count(n) == r11.count(n) == n + 1):
            failures.append(((1, 1), n))
    _announce(9, "{1,2} gives floor(n/2)+1 and {1,1} gives n+1 up to n=200", failures)
    assert not failures


def test_criterion_10_certificate_evaluation_performance():
    failures = []
    parts = (1, 2, 3, 4)
    t0 = time.perf_counter()
    cert = build_explicit(parts)
    build_s = time.perf_counter() - t0

    def best_eval(n, repeat=25):
        best = None
        for _ in range(repeat):
            t = time.perf_counter()
            cert.count(n)
            dt = time.perf_counter() - t
            if best is None or dt < best:
                best = dt
        return best

    big = 10**6
    eval_big = best_eval(big)
    eval_small = best_eval(10**3)

    t0 = time.perf_counter()
    via_dp = count_dp(parts, big)[big]
    dp_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    count_dp(parts, big // 10)
    dp_tenth_s = time.perf_counter() - t0

    if cert.count(big) != via_dp:
        failures.append(("value-mismatch", cert.count(big), via_dp))
    if eval_big >= 0.01:
        failures.append(("eval-not-millisecond-scale", eval_big))
    if dp_s <= 10 * eval_big:
        failures.append(("dp-not-visibly-slower", dp_s, eval_big))
    # linear DP: a 10x larger range should cost roughly 10x, generously bounded
    if not 2 * dp_tenth_s < dp_s < 50 * dp_tenth_s:
        failures.append(("dp-not-visibly-linear", dp_s, dp_tenth_s))
    if eval_big >= 100 * max(eval_small, 1e-7):
        failures.append(("eval-grows-with-n", eval_big, eval_small))
    _announce(
        10,
        f"certificate eval at n=10^6: {eval_big * 1e6:.0f}us (build {build_s * 1e3:.1f}ms, "
        f"DP {dp_s:.2f}s vs {dp_tenth_s:.2f}s at n=10^5, eval at 10^3: {eval_small * 1e6:.0f}us)",
        failures,
    )
    assert not failures
