"""Command-line front end: counts, certificates, verification, benchmarks.

Exit codes: 0 on success, 1 when a verification property fails, 2 on usage
errors (click's default for bad parameters), on inputs over the guard limit
and on counts with more digits than int() prints.
"""

from __future__ import annotations

import json
import math
import sys
import time

import click

from . import oracle, quasipoly, verify
from .errors import CapacityError, InputError, IntegralityError
from .exactnum import as_parts


def _parse_int(text: str) -> int:
    """Plain integer, or base^exponent shorthand like 10^6.

    A sign binds looser than the power, as in arithmetic: -10^2 is -(10^2).
    A power gets the digit limit int() puts on plain integers, checked on an
    estimate before the power is computed.
    """
    text = text.strip()
    if "^" in text:
        base, _, exp = text.partition("^")
        b, e = abs(int(base)), int(exp)
        if e < 0:
            raise ValueError("negative exponent")
        limit = sys.get_int_max_str_digits()
        if limit and b > 1 and e >= limit / math.log10(b):
            raise ValueError(f"{text} has more than the {limit} digits allowed")
        return -(b**e) if base.startswith("-") else b**e
    return int(text)


def _parts_cb(ctx, param, value):
    try:
        return as_parts(int(x) for x in value.split(","))
    except (ValueError, InputError) as exc:
        raise click.BadParameter(f"expected comma-separated positive integers: {exc}")


def _range_cb(ctx, param, value):
    try:
        if ".." in value:
            lo_s, _, hi_s = value.partition("..")
            lo, hi = _parse_int(lo_s), _parse_int(hi_s)
            if lo > hi:
                raise ValueError(f"empty range {value!r}")
            oracle.guard(hi - lo + 1, f"the range {value} has {hi - lo + 1} values")
            ns = tuple(range(lo, hi + 1))
        else:
            ns = (_parse_int(value),)
    except ValueError as exc:
        raise click.BadParameter(f"expected N or A..B (inclusive): {exc}")
    if ns[0] < 0:
        raise click.BadParameter("counts are defined for n >= 0")
    return ns


def _nonneg_int_cb(ctx, param, value):
    if value is None:
        return None
    try:
        n = _parse_int(value)
    except ValueError as exc:
        raise click.BadParameter(f"expected an integer: {exc}")
    if n < 0:
        raise click.BadParameter(f"{param.opts[0].lstrip('-')} must be nonnegative")
    return n


def _props_cb(ctx, param, value):
    if value is None:
        return None
    names = tuple(p.strip() for p in value.split(",") if p.strip())
    if not names:
        raise click.BadParameter(f"no properties given; valid: {','.join(verify.PROPERTIES)}")
    unknown = [p for p in names if p not in verify.PROPERTIES]
    if unknown:
        raise click.BadParameter(
            f"unknown properties {','.join(unknown)}; valid: {','.join(verify.PROPERTIES)}"
        )
    return names


class _Group(click.Group):
    """Turns a CapacityError from any subcommand, option callbacks included,
    into a usage error (exit 2)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except CapacityError as exc:
            raise click.UsageError(str(exc)) from exc


@click.group(cls=_Group)
def main():
    """Exact restricted-partition counts and their quasi-polynomial certificates."""


@main.command("eval")
@click.option("--parts", required=True, callback=_parts_cb,
              help="Comma-separated positive parts; order and duplicates kept.")
@click.option("--n", "ns", required=True, callback=_range_cb,
              help="A single n or an inclusive range A..B; 10^6 style accepted.")
@click.option("--method", type=click.Choice([*verify.BUILDERS, "oracle"]),
              default="explicit", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["plain", "json", "csv"]),
              default="plain", show_default=True)
def cmd_eval(parts, ns, method, fmt):
    """Print the exact count for each requested n."""
    if method == "oracle":
        table = oracle.count_dp(parts, max(ns))
        counts = [table[n] for n in ns]
    else:
        cert = verify.BUILDERS[method](parts)
        try:
            counts = [cert.count(n) for n in ns]
        except IntegralityError as exc:
            raise click.ClickException(str(exc))
    limit = sys.get_int_max_str_digits()
    bound = 10**limit if limit else None
    if bound and any(abs(c) >= bound for c in counts):
        raise CapacityError(f"a count has more than the {limit} digits int() prints")
    if fmt == "plain":
        click.echo(" ".join(str(c) for c in counts))
    elif fmt == "csv":
        click.echo("n,count")
        for n, c in zip(ns, counts):
            click.echo(f"{n},{c}")
    else:
        click.echo(json.dumps(
            {"parts": list(parts), "method": method, "n": list(ns), "counts": counts}
        ))


@main.command("cert")
@click.option("--parts", required=True, callback=_parts_cb,
              help="Comma-separated positive parts; order and duplicates kept.")
@click.option("--method", type=click.Choice(list(verify.BUILDERS)),
              default="explicit", show_default=True)
def cmd_cert(parts, method):
    """Emit the certificate for the part list as deterministic JSON."""
    click.echo(verify.BUILDERS[method](parts).to_json())


@main.command("verify")
@click.option("--parts", required=True, callback=_parts_cb,
              help="Comma-separated positive parts; order and duplicates kept.")
@click.option("--props", callback=_props_cb, default=None,
              help=f"Comma-separated subset of: {','.join(verify.PROPERTIES)}. Default: all.")
@click.option("--n-max", callback=_nonneg_int_cb, default=None,
              help="Oracle comparison bound; default max(3*lcm+10, m*lcm-1), a proof range.")
@click.option("--format", "fmt", type=click.Choice(["plain", "json"]),
              default="plain", show_default=True)
def cmd_verify(parts, props, n_max, fmt):
    """Check structural properties; exit 1 with a minimal counterexample on failure."""
    report = verify.run_properties(parts, props=props, n_max=n_max)
    if fmt == "json":
        click.echo(json.dumps(report.to_json_dict()))
    else:
        click.echo(report.render_text())
    if not report.passed:
        sys.exit(1)


@main.command("bench")
@click.option("--parts", required=True, callback=_parts_cb,
              help="Comma-separated positive parts; order and duplicates kept.")
@click.option("--n", callback=_nonneg_int_cb, required=True,
              help="Evaluation point; 10^6 style accepted.")
@click.option("--format", "fmt", type=click.Choice(["plain", "csv"]),
              default="plain", show_default=True)
@click.option("--repeat", type=int, default=25, show_default=True,
              help="Certificate evaluations to time (best is reported).")
def cmd_bench(parts, n, fmt, repeat):
    """Time certificate build, certificate evaluation, and the DP oracle at one n.

    Timings are wall-clock measurements; every reported count stays exact.
    """
    if repeat < 1:
        raise click.BadParameter("repeat must be positive")
    oracle.guard(repeat, f"--repeat would time {repeat} evaluations")
    t0 = time.perf_counter()
    cert = quasipoly.build_explicit(parts)
    build_s = time.perf_counter() - t0

    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        via_cert = cert.count(n)
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt

    t0 = time.perf_counter()
    via_dp = oracle.count_dp(parts, n)[n]
    dp_s = time.perf_counter() - t0

    agree = via_cert == via_dp
    rows = [
        ("parts", ",".join(str(d) for d in parts)),
        ("n", str(n)),
        ("build_seconds", f"{build_s:.6f}"),
        ("eval_seconds", f"{best:.9f}"),
        ("dp_seconds", f"{dp_s:.6f}"),
        ("count", str(via_cert)),
        ("agree", "yes" if agree else "NO"),
    ]
    if fmt == "csv":
        click.echo("metric,value")
        for k, v in rows:
            click.echo(f"{k},{v}")
    else:
        for k, v in rows:
            click.echo(f"{k:<14} {v}")
    if not agree:
        sys.exit(1)


@main.command("corpus")
@click.option("--max-m", type=int, required=True, help="Largest number of parts.")
@click.option("--max-part", type=int, required=True, help="Largest part value.")
@click.option("--props", callback=_props_cb, default=None,
              help="Comma-separated property subset. Default: all.")
@click.option("--n-max", callback=_nonneg_int_cb, default=None,
              help="Oracle comparison bound per set; default max(3*lcm+10, m*lcm-1), a proof range.")
@click.option("--format", "fmt", type=click.Choice(["plain", "json"]),
              default="plain", show_default=True)
def cmd_corpus(max_m, max_part, props, n_max, fmt):
    """Sweep every part multiset within the bounds and verify each one."""
    if max_m < 1 or max_part < 1:
        raise click.BadParameter("--max-m and --max-part must be positive")
    # the sweep has C(max_part + max_m, max_m) - 1 lists; the partial products
    # C(n - k + i, i) of that binomial grow at least as 2^i, so a huge sweep is
    # refused after about log2(limit) steps, before the binomial is computed
    n, k = max_part + max_m, min(max_m, max_part)
    sets = 1
    for i in range(1, k + 1):
        sets = sets * (n - k + i) // i
        oracle.guard(sets - 1, f"the sweep would verify at least {sets - 1} part lists")
    reports = []
    for d in verify.iter_multisets(max_m, max_part):
        reports.append(verify.run_properties(d, props=props, n_max=n_max))
    failures = [r for r in reports if not r.passed]
    if fmt == "json":
        click.echo(json.dumps({
            "sets": len(reports),
            "failures": len(failures),
            "reports": [r.to_json_dict() for r in reports],
        }))
    else:
        for r in reports:
            flags = " ".join(
                f"{res.name}={'pass' if res.passed else 'FAIL'}" for res in r.results
            )
            click.echo(f"{{{','.join(str(d) for d in r.parts)}}}  {flags}")
        click.echo(f"{len(reports)} sets checked, {len(failures)} failing")
    if failures:
        sys.exit(1)


if __name__ == "__main__":
    main()
