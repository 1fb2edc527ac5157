"""Command-line surface.

Reports go to stdout, diagnostics to stderr. Exit status is nonzero when a
command cannot run (bad flags, unreadable file, violated precondition) or when
a verifier observes the failure of a guarantee that holds unconditionally over
the rationals. Merely informational misses (asymptotic thresholds at small n)
exit zero. Domain errors (``OrdlinesError``) are converted once, where the
``main`` group invokes a command, so every command, nested ones included, turns
them into ``Error: ...`` and exit status 1.

JSON output renders every rational as {"exact": "a/b", "approx": float}; the
approx field is a convenience and never feeds back into any computation.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from fractions import Fraction

import click

from .analysis import (
    bound_constants,
    concurrent_lines_probe,
    verify_almost_coplanar,
    verify_skew_bound,
    verify_sylvester_gallai,
)
from .constructions import (
    boroczky_model,
    gen_coplanar_heavy,
    gen_grid2d,
    gen_hesse,
    gen_near_coplanar,
    gen_random,
    gen_two_skew,
)
from .errors import OrdlinesError, ParseError, UsageError
from .geometry import CanonLine3, Kind, canon_line, make_point, skew
from .incidence import (
    PointSet,
    _pair_counts,
    _pair_keys,
    _plane_groups,
    kelly_trace,
    project_from,
    span_summary,
)
from .pointset_io import _parse_scalar, read_pointset_file, write_pointset
from .search import SearchConfig, minimize_ordinary

CONSTRUCTIONS = ("skew", "near-coplanar", "coplanar-heavy", "random", "grid", "hesse")


def _rat(text: str, name: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.ClickException(f"--{name} expects a rational like 2/3, got {text!r}") from exc


def _jrat(x: Fraction) -> dict:
    return {"exact": f"{Fraction(x)}", "approx": float(x)}


def _approx(x: Fraction) -> str:
    return f"{Fraction(x)} (~{float(x):.6g})"


def _write_file(path: str, text: str, mode: str = "w") -> None:
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _check_writable(path: str) -> None:
    """Fail now, not after a long run, if ``path`` cannot be written. Opening it
    for appending changes no content; a file that this creates is removed."""
    existed = os.path.lexists(path)
    _write_file(path, "", mode="a")
    if not existed:
        os.remove(path)


class _Main(click.Group):
    """Turn domain errors into clean diagnostics with exit status 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except OrdlinesError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
def main():
    """Exact arithmetic laboratory for ordinary lines and spanned planes."""


@main.command()
@click.argument("construction_arg", required=False, metavar="[CONSTRUCTION]")
@click.option("--construction", "-c", type=click.Choice(CONSTRUCTIONS), default=None)
@click.option("--m", type=int, default=None, help="points per line (skew), grid rows, model size")
@click.option("--n", type=int, default=None, help="total points; grid columns")
@click.option("--k", type=int, default=None, help="off-plane points (near-coplanar)")
@click.option("--alpha", default=None, help="coplanarity fraction, rational like 1/2")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--bound", type=int, default=50, show_default=True, help="coordinate size bound")
@click.option("--dim", type=int, default=2, show_default=True, help="dimension for random sets")
@click.option("-o", "--output", type=click.Path(dir_okay=False), required=True)
def gen(construction_arg, construction, m, n, k, alpha, seed, bound, dim, output):
    """Generate a named construction and write it as a point-set file."""
    if construction_arg and construction and construction_arg != construction:
        raise UsageError(
            f"conflicting constructions {construction_arg!r} and {construction!r}"
        )
    name = construction or construction_arg
    if name not in CONSTRUCTIONS:
        raise UsageError(f"pick a construction from {', '.join(CONSTRUCTIONS)}")

    if name == "skew":
        if m is None:
            raise UsageError("skew needs --m (points per line)")
        ps = gen_two_skew(m)
    elif name == "near-coplanar":
        if n is None or k is None:
            raise UsageError("near-coplanar needs --n and --k")
        ps = gen_near_coplanar(n, k, seed)
    elif name == "coplanar-heavy":
        if n is None or alpha is None:
            raise UsageError("coplanar-heavy needs --n and --alpha")
        ps = gen_coplanar_heavy(n, _rat(alpha, "alpha"), seed)
    elif name == "random":
        if n is None:
            raise UsageError("random needs --n")
        ps = gen_random(n, dim, bound, seed)
    elif name == "grid":
        if m is None:
            raise UsageError("grid needs --m (rows); --n gives columns, default square")
        ps = gen_grid2d(m, n if n is not None else m)
    else:
        ps = gen_hesse()

    _write_file(output, write_pointset(ps))
    click.echo(f"wrote {len(ps)} points ({ps.kind.value}, {ps.field_name}) to {output}")


@main.command()
@click.argument("file", type=click.Path(dir_okay=False))
@click.option("--planes", is_flag=True, help="also summarize spanned planes (3D only)")
@click.option("--json", "as_json", is_flag=True)
def stats(file, planes, as_json):
    """Span summary of a point-set file: line histogram and ordinary count."""
    ps = read_pointset_file(file)
    s = span_summary(ps)
    payload = {
        "label": ps.label,
        "kind": ps.kind.value,
        "field": ps.field_name,
        "n": s.n,
        "span": {
            "t": {str(k): c for k, c in s.t.items()},
            "num_lines": s.num_lines,
            "ordinary": s.ordinary,
            "max_collinear": s.max_collinear,
        },
    }
    if planes:
        sizes = sorted(Counter(map(len, _plane_groups(ps).values())).items())
        payload["planes"] = {
            "num_planes": sum(c for _, c in sizes),
            "max_coplanar": sizes[-1][0],
            "size_histogram": {str(k): c for k, c in sizes},
        }
    if as_json:
        click.echo(json.dumps(payload, indent=2))
        return
    head = f"n={s.n} kind={ps.kind.value} field={ps.field_name}"
    if ps.label:
        head += f" label={ps.label}"
    click.echo(head)
    click.echo(
        f"spanned lines: {s.num_lines}   ordinary: {s.ordinary}   "
        f"max collinear: {s.max_collinear}"
    )
    click.echo("t: " + " ".join(f"{k}:{c}" for k, c in s.t.items()))
    if planes:
        click.echo(
            f"spanned planes: {payload['planes']['num_planes']}   "
            f"max coplanar: {payload['planes']['max_coplanar']}"
        )


@main.command()
@click.argument("file", type=click.Path(dir_okay=False))
@click.option("--center", type=int, required=True, help="index of the projection point")
@click.option("--trace", is_flag=True, help="hunt ordinary lines avoiding the center")
@click.option("--json", "as_json", is_flag=True)
def project(file, center, trace, as_json):
    """Project a 3D set from one of its points; report the image structure."""
    ps = read_pointset_file(file)
    img = project_from(ps, center)
    sizes = sorted((len(idxs) for _, idxs in img.groups), reverse=True)
    payload = {
        "center": center,
        "n": len(ps),
        "q1_size": len(sizes),
        "q2_size": sizes.count(1),
        "group_sizes": sizes,
    }
    report = None
    if trace:
        report = kelly_trace(ps, center)
        payload["l1_size"] = report.l1_size
        payload["found_ordinary"] = [list(line.plucker) for line in report.found_ordinary]
    if as_json:
        click.echo(json.dumps(payload, indent=2))
        return
    click.echo(
        f"projected {len(ps)} points from index {center}: "
        f"{payload['q1_size']} directions, {payload['q2_size']} with unique preimage"
    )
    click.echo("group sizes: " + " ".join(str(s) for s in payload["group_sizes"]))
    if report is not None:
        click.echo(
            f"image lines without unique-preimage points: {report.l1_size}; "
            f"ordinary lines avoiding the center: {len(report.found_ordinary)}"
        )


@main.group()
def verify():
    """Check the implemented guarantees on a concrete point-set file."""


def _parse_indices(text: str, n: int, name: str) -> tuple[int, int]:
    try:
        i, j = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"--{name} expects two indices like 0,1") from exc
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise UsageError(f"--{name} indices must be distinct and within 0..{n - 1}")
    return i, j


def _heaviest_skew_pair(ps: PointSet):
    if ps.kind is not Kind.AFFINE3:
        raise UsageError("skew lines need a 3D affine set")
    pairs = _pair_counts(*_pair_keys(ps, lines=True))
    by_weight = map(CanonLine3, sorted(pairs, key=lambda k: (-pairs[k], k)))
    heaviest = next(by_weight, None)
    for line in by_weight:
        if skew(heaviest, line):
            return heaviest, line
    raise UsageError("no pair of skew spanned lines in this set")


@verify.command("sylvester-gallai")
@click.argument("file", type=click.Path(dir_okay=False))
@click.pass_context
def verify_sg(ctx, file):
    """A non-collinear planar set must span an ordinary line (rational fields)."""
    ps = read_pointset_file(file)
    rep = verify_sylvester_gallai(ps)
    if rep.witness is not None:
        click.echo(f"holds: ordinary line with coefficients {rep.witness.vector}")
    elif rep.holds:
        click.echo("holds vacuously: all points collinear")
    else:
        click.echo("fails: no ordinary line spanned")
    if not rep.holds and ps.field_name == "Q":
        click.echo("guarantee violated over the rationals", err=True)
        ctx.exit(1)


@verify.command("skew-bound")
@click.argument("file", type=click.Path(dir_okay=False))
@click.option("--line1", default=None, help="two point indices, like 0,1")
@click.option("--line2", default=None, help="two point indices, like 10,11")
@click.pass_context
def verify_skew(ctx, file, line1, line2):
    """Ordinary count is at least |P on l|*|P on l'| - |P| for skew l, l'."""
    ps = read_pointset_file(file)
    if (line1 is None) != (line2 is None):
        raise UsageError("give both --line1 and --line2, or neither")
    if line1 is None:
        l1, l2 = _heaviest_skew_pair(ps)
    else:
        i, j = _parse_indices(line1, len(ps), "line1")
        k, m = _parse_indices(line2, len(ps), "line2")
        l1, l2 = canon_line(ps[i], ps[j]), canon_line(ps[k], ps[m])
    rep = verify_skew_bound(ps, l1, l2)
    click.echo(f"ordinary: {rep.lhs}   bound: {rep.rhs}   holds: {rep.holds}")
    if not rep.holds:
        click.echo("skew-lines bound violated", err=True)
        ctx.exit(1)


@verify.command("almost-coplanar")
@click.argument("file", type=click.Path(dir_okay=False))
@click.option("--k", type=int, required=True, help="points off the heaviest plane")
def verify_ac(file, k):
    """Report the ordinary count against the (k+1/2)(n-k) - C(k,2) threshold."""
    ps = read_pointset_file(file)
    rep = verify_almost_coplanar(ps, k)
    click.echo(f"ordinary: {rep.count}   threshold: {_approx(rep.bound)}   holds: {rep.holds}")
    click.echo(f"note: {rep.caveat}")


@verify.command("concurrent")
@click.argument("file", type=click.Path(dir_okay=False))
@click.option("--apex", required=True, help="apex coordinates, comma-separated")
@click.pass_context
def verify_concurrent(ctx, file, apex):
    """Count pencil lines through the apex and ordinary lines avoiding it."""
    ps = read_pointset_file(file)
    tokens = apex.split(",")
    want = 3 if ps.kind is Kind.PROJECTIVE2 else 2
    if len(tokens) != want:
        raise UsageError(f"--apex needs {want} coordinates for a {ps.kind.value} set")
    try:
        coords = [_parse_scalar(tok.strip(), 0, ps.field_name) for tok in tokens]
    except ParseError as exc:
        raise UsageError(f"--apex has a malformed coordinate in {apex!r}") from exc
    apex_point = make_point(coords, ps.kind)
    rep = concurrent_lines_probe(ps, apex_point)
    click.echo(
        f"pencil lines through apex: {rep.contained_in}   "
        f"ordinary lines avoiding apex: {rep.ordinary_avoiding_apex}"
    )
    if (
        ps.field_name == "Q"
        and rep.contained_in in (3, 4)
        and rep.ordinary_avoiding_apex == 0
    ):
        click.echo("expected an ordinary line avoiding the apex over the rationals", err=True)
        ctx.exit(1)


@main.command()
@click.option("--alpha", default=None, help="heaviest-plane fraction, rational")
@click.option("--beta", required=True, help="max line fraction, rational")
@click.option("--gamma", required=True, help="line-count constant, rational")
@click.option("--grid", is_flag=True, help="scan alpha over k/100, k=1..99")
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def constants(ctx, alpha, beta, gamma, grid, as_json):
    """Evaluate the ordinary-line bound constants exactly."""
    b, g = _rat(beta, "beta"), _rat(gamma, "gamma")
    if alpha is None and not grid:
        raise UsageError("give --alpha, or --grid for a scan")
    payload: dict = {"beta": _jrat(b), "gamma": _jrat(g)}
    if alpha is not None:
        at = bound_constants(_rat(alpha, "alpha"), b, g)
        payload["at_alpha"] = {
            name: _jrat(getattr(at, name))
            for name in (
                "alpha",
                "alpha0",
                "c_alpha0",
                "mu",
                "nu",
                "gamma_prime_case1",
                "gamma_prime_case2b",
                "d_case1",
                "d_case2a",
                "d_case2b",
                "d_alpha",
            )
        }
    violations = []
    if grid:
        worst = None
        for num in range(1, 100):
            a = Fraction(num, 100)
            c = bound_constants(a, b, g)
            if not c.mu < a < c.nu:
                violations.append(f"mu < alpha < nu fails at alpha={a}")
            if c.d_alpha <= 0:
                violations.append(f"d_alpha <= 0 at alpha={a}")
            if worst is None or c.d_alpha < worst[1]:
                worst = (a, c.d_alpha)
        payload["grid"] = {
            "points": 99,
            "min_d_alpha": _jrat(worst[1]),
            "argmin_alpha": _jrat(worst[0]),
            "violations": violations,
        }
    if as_json:
        click.echo(json.dumps(payload, indent=2))
    else:
        if "at_alpha" in payload:
            for name in payload["at_alpha"]:
                click.echo(f"{name:>20} = {_approx(getattr(at, name))}")
        if grid:
            click.echo(
                f"grid: min d_alpha = {payload['grid']['min_d_alpha']['exact']} "
                f"at alpha = {payload['grid']['argmin_alpha']['exact']}"
            )
            for v in violations:
                click.echo(f"violation: {v}")
    if violations:
        click.echo("constant guarantees violated on the grid", err=True)
        ctx.exit(1)


@main.command()
@click.option("--m", type=int, required=True, help="points on the conic (and on the line)")
@click.option("--json", "as_json", is_flag=True)
def boroczky(m, as_json):
    """Line histogram of the conic-plus-line configuration."""
    s = boroczky_model(m)
    if as_json:
        click.echo(
            json.dumps(
                {
                    "m": s.m,
                    "n": s.n,
                    "ordinary": s.ordinary,
                    "num_lines": s.num_lines,
                    "t": {str(k): c for k, c in s.t.items()},
                },
                indent=2,
            )
        )
        return
    click.echo(f"m={s.m} n={s.n} ordinary={s.ordinary} (= n/2)  lines={s.num_lines}")
    click.echo("t: " + " ".join(f"{k}:{c}" for k, c in s.t.items()))


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--alpha", required=True, help="coplanarity cap fraction, rational")
@click.option("--iters", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--init", type=click.Path(dir_okay=False), default=None)
@click.option("--bound", type=int, default=30, show_default=True)
@click.option("-o", "--output", type=click.Path(dir_okay=False), required=True)
def search(n, alpha, iters, seed, init, bound, output):
    """Anneal toward few ordinary lines under the coplanarity cap."""
    initial = read_pointset_file(init) if init else None
    config = SearchConfig(
        n=n,
        alpha=_rat(alpha, "alpha"),
        iterations=iters,
        seed=seed,
        coordinate_bound=bound,
        initial=initial,
    )
    for path in (output, output + ".json"):
        _check_writable(path)
    result = minimize_ordinary(config)
    _write_file(output, write_pointset(result.best))
    report = {
        "params": {
            "n": n,
            "alpha": _jrat(config.alpha),
            "iterations": iters,
            "seed": seed,
            "coordinate_bound": bound,
            "init": init,
        },
        "best_count": result.best_count,
        "ratio": _jrat(result.ratio),
        "accepted_moves": result.accepted_moves,
        "trace": [[it, count] for it, count in result.trace],
        "plane_profile": [[points, ordinary] for points, ordinary in result.plane_profile],
    }
    try:
        _write_file(output + ".json", json.dumps(report, indent=2) + "\n")
    except UsageError:
        os.remove(output)  # no set without its report
        raise
    click.echo(
        f"best ordinary count {result.best_count} (ratio {_approx(result.ratio)}); "
        f"set -> {output}, trace -> {output}.json"
    )


if __name__ == "__main__":
    main()
