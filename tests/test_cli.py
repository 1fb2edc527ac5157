"""End-to-end runs of every CLI command through click's test runner."""

import hashlib
import json
import sys
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import ordlines
from ordlines import (
    InvariantViolationError,
    PointSet,
    affine3,
    gen_two_skew,
    minimize_ordinary,
    read_pointset_file,
    write_pointset,
)
from ordlines.cli import main
from conftest import integer_box


@pytest.fixture
def runner():
    return CliRunner()


def _defining_module(name: str):
    """The module that defines the public ``name``. Commands import library names
    when they run, so a patch there is what they see."""
    return sys.modules[getattr(ordlines, name).__module__]


def _everything(result):
    stderr = getattr(result, "stderr", "") or ""
    return result.output + stderr


def _gen(runner, tmp_path, *args, name="pts.txt"):
    path = tmp_path / name
    result = runner.invoke(main, ["gen", *args, "-o", str(path)])
    assert result.exit_code == 0, _everything(result)
    return path


def test_gen_all_constructions(runner, tmp_path):
    cases = [
        (["skew", "--m", "4"], 8),
        (["--construction", "near-coplanar", "--n", "10", "--k", "2"], 10),
        (["coplanar-heavy", "--n", "10", "--alpha", "1/2"], 10),
        (["random", "--n", "6", "--dim", "3"], 6),
        (["grid", "--m", "3"], 9),
        (["grid", "--m", "2", "--n", "5"], 10),
        (["hesse"], 9),
    ]
    for i, (args, size) in enumerate(cases):
        path = _gen(runner, tmp_path, *args, name=f"g{i}.txt")
        assert len(read_pointset_file(str(path))) == size


def test_gen_rejections(runner, tmp_path):
    out = str(tmp_path / "x.txt")
    result = runner.invoke(main, ["gen", "skew", "-c", "grid", "--m", "3", "-o", out])
    assert result.exit_code != 0
    assert "conflicting" in _everything(result)
    result = runner.invoke(main, ["gen", "skew", "-o", out])
    assert result.exit_code != 0
    result = runner.invoke(main, ["gen", "mystery", "-o", out])
    assert result.exit_code != 0
    assert "pick a construction" in _everything(result)


def test_stats_human_and_json(runner, tmp_path):
    path = _gen(runner, tmp_path, "skew", "--m", "3")
    result = runner.invoke(main, ["stats", str(path)])
    assert result.exit_code == 0
    assert "ordinary: 9" in result.output
    assert "max collinear: 3" in result.output

    result = runner.invoke(main, ["stats", str(path), "--planes", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["span"]["t"] == {"2": 9, "3": 2}
    assert payload["span"]["num_lines"] == 11
    assert payload["planes"]["num_planes"] == 6
    assert payload["planes"]["size_histogram"] == {"4": 6}
    assert payload["planes"]["max_coplanar"] == 4


def test_stats_rejects_singleton(runner, tmp_path):
    path = tmp_path / "one.txt"
    path.write_text(write_pointset(PointSet([affine3(0, 0, 0)])), encoding="utf-8")
    result = runner.invoke(main, ["stats", str(path)])
    assert result.exit_code != 0


def test_project_with_trace(runner, tmp_path):
    path = _gen(runner, tmp_path, "skew", "--m", "4")
    result = runner.invoke(main, ["project", str(path), "--center", "0"])
    assert result.exit_code == 0
    assert "5 directions, 4 with unique preimage" in result.output

    result = runner.invoke(main, ["project", str(path), "--center", "0", "--trace", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["group_sizes"] == [3, 1, 1, 1, 1]
    assert payload["l1_size"] == 0
    assert payload["found_ordinary"] == []

    result = runner.invoke(main, ["project", str(path), "--center", "99"])
    assert result.exit_code != 0


def test_verify_sylvester_gallai(runner, tmp_path):
    grid = _gen(runner, tmp_path, "grid", "--m", "3", name="grid.txt")
    result = runner.invoke(main, ["verify", "sylvester-gallai", str(grid)])
    assert result.exit_code == 0
    assert "holds" in result.output

    hesse = _gen(runner, tmp_path, "hesse", name="hesse.txt")
    result = runner.invoke(main, ["verify", "sylvester-gallai", str(hesse)])
    # no ordinary line, but the guarantee only covers the rationals
    assert result.exit_code == 0
    assert "fails" in result.output

    collinear = tmp_path / "line.txt"
    collinear.write_text("dim=2 kind=affine field=Q\n0 0\n1 1\n2 2\n", encoding="utf-8")
    result = runner.invoke(main, ["verify", "sylvester-gallai", str(collinear)])
    assert result.exit_code == 0
    assert "vacuously" in result.output


def test_verify_sylvester_gallai_prints_an_eisenstein_witness_as_the_file_format_does(
    runner, tmp_path
):
    path = tmp_path / "frame.txt"
    path.write_text("dim=2 kind=projective field=Qw\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n", encoding="utf-8")
    result = runner.invoke(main, ["verify", "sylvester-gallai", str(path)])
    assert (result.exit_code, result.output) == (
        0,
        "holds: ordinary line with coefficients (0+0*w, 0+0*w, 1+0*w)\n",
    )


def test_verify_skew_bound(runner, tmp_path):
    path = _gen(runner, tmp_path, "skew", "--m", "5")
    result = runner.invoke(main, ["verify", "skew-bound", str(path)])
    assert result.exit_code == 0
    assert "ordinary: 25" in result.output
    assert "holds: True" in result.output

    result = runner.invoke(
        main, ["verify", "skew-bound", str(path), "--line1", "0,1", "--line2", "5,6"]
    )
    assert result.exit_code == 0
    assert "bound: 15" in result.output

    result = runner.invoke(main, ["verify", "skew-bound", str(path), "--line1", "0,1"])
    assert result.exit_code != 0
    result = runner.invoke(
        main, ["verify", "skew-bound", str(path), "--line1", "0,0", "--line2", "5,6"]
    )
    assert result.exit_code != 0

    planar = _gen(runner, tmp_path, "grid", "--m", "3", name="planar.txt")
    result = runner.invoke(main, ["verify", "skew-bound", str(planar)])
    assert result.exit_code != 0


def test_verify_skew_bound_rejects_a_single_index(runner, tmp_path):
    path = _gen(runner, tmp_path, "skew", "--m", "10", name="skew10.txt")
    result = runner.invoke(
        main, ["verify", "skew-bound", str(path), "--line1", "0", "--line2", "1,2"]
    )
    assert result.exit_code == 1
    assert result.output == "Error: --line1 expects two indices like 0,1\n"


def test_verify_skew_bound_on_2d_input_is_a_usage_error(runner, tmp_path):
    planar = _gen(runner, tmp_path, "grid", "--m", "3", name="planar.txt")
    for extra in ([], ["--line1", "0,1", "--line2", "3,4"]):
        result = runner.invoke(main, ["verify", "skew-bound", str(planar), *extra])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Error:" in _everything(result)
        assert "3D" in _everything(result)


def test_verify_almost_coplanar(runner, tmp_path):
    path = _gen(runner, tmp_path, "skew", "--m", "10")
    result = runner.invoke(main, ["verify", "almost-coplanar", str(path), "--k", "9"])
    assert result.exit_code == 0
    assert "137/2" in result.output
    assert "holds: True" in result.output

    result = runner.invoke(main, ["verify", "almost-coplanar", str(path), "--k", "10"])
    assert result.exit_code == 1
    assert result.output == "Error: plane (0, 1, -10, 0) contains 11 points, more than n - k = 10\n"

    result = runner.invoke(main, ["verify", "almost-coplanar", str(path), "--k", "100"])
    assert result.exit_code == 1
    assert result.output == "Error: k must be at most n = 20\n"


def test_verify_concurrent(runner, tmp_path):
    axes = tmp_path / "axes.txt"
    axes.write_text(
        "dim=2 kind=affine field=Q\n1 0\n2 0\n-1 0\n0 1\n0 2\n0 -1\n", encoding="utf-8"
    )
    result = runner.invoke(main, ["verify", "concurrent", str(axes), "--apex", "0,0"])
    assert result.exit_code == 0
    assert "pencil lines through apex: 2" in result.output

    result = runner.invoke(main, ["verify", "concurrent", str(axes), "--apex", "0,q"])
    assert result.exit_code != 0
    assert "malformed" in _everything(result)
    result = runner.invoke(main, ["verify", "concurrent", str(axes), "--apex", "0,0,1"])
    assert result.exit_code != 0


@pytest.mark.parametrize("apex", ["0,0,0", "0,0"])
def test_verify_concurrent_refuses_a_3d_set_before_reading_the_apex(runner, tmp_path, apex):
    """A 3D set gets the probe's refusal, whatever the apex's coordinate count."""
    path = tmp_path / "box.txt"
    path.write_text("dim=3 kind=affine field=Q\n0 0 1\n1 0 0\n0 1 0\n1 1 1\n", encoding="utf-8")
    result = runner.invoke(main, ["verify", "concurrent", str(path), "--apex", apex])
    assert (result.exit_code, result.output) == (
        1,
        "Error: concurrent_lines_probe needs a planar set\n",
    ), _everything(result)


def test_constants_command(runner):
    result = CliRunner().invoke(
        main, ["constants", "--alpha", "2/27", "--beta", "2/3", "--gamma", "1/9", "--json"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["at_alpha"]["alpha0"]["exact"] == "2/27"
    assert payload["at_alpha"]["c_alpha0"]["exact"] == "1/118098"

    result = runner.invoke(main, ["constants", "--beta", "2/3", "--gamma", "1/9", "--grid"])
    assert result.exit_code == 0
    assert "min d_alpha" in result.output

    result = runner.invoke(main, ["constants", "--beta", "2/3", "--gamma", "1/9"])
    assert result.exit_code != 0
    result = runner.invoke(
        main, ["constants", "--alpha", "x", "--beta", "2/3", "--gamma", "1/9"]
    )
    assert result.exit_code != 0


def _readme_output(command: str, count: int) -> list[str]:
    """The first ``count`` output lines README shows under ``$ <command>``."""
    lines = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index(f"$ {command}") + 1
    return lines[start : start + count]


def test_constants_text_matches_readme(runner):
    result = runner.invoke(
        main, ["constants", "--alpha", "2/27", "--beta", "2/3", "--gamma", "1/9"]
    )
    assert result.exit_code == 0
    expected = _readme_output("ordlines constants --alpha 2/27 --beta 2/3 --gamma 1/9", 5)
    assert result.output.splitlines()[:5] == expected


def test_constants_text_with_grid_keeps_the_given_alpha(runner):
    # The grid scan evaluates 99 other alphas; the at-alpha lines must not
    # pick up the last of them.
    args = ["constants", "--alpha", "2/27", "--beta", "2/3", "--gamma", "1/9"]
    alone = runner.invoke(main, args).output.splitlines()
    both = runner.invoke(main, args + ["--grid"]).output.splitlines()
    assert len(alone) == 11
    assert both[:11] == alone
    assert both[11].startswith("grid: min d_alpha = ")


@pytest.mark.parametrize(
    "args, digest",
    [
        (
            ["--alpha", "2/27", "--beta", "2/3", "--gamma", "1/9", "--json"],
            "f9a4ffa7d9bfb406c1fc37dbe983708e6254d589c92c742d79956591a076043a",
        ),
        (
            ["--alpha", "1/2", "--beta", "2/3", "--gamma", "1/9", "--grid", "--json"],
            "8708774ed9a238e3e77002bb928ebbb1604c062d8a2bc4efb32979269d049085",
        ),
    ],
    ids=["alpha0", "half-with-grid"],
)
def test_golden_constants_json(runner, args, digest):
    result = runner.invoke(main, ["constants", *args])
    assert result.exit_code == 0, _everything(result)
    assert hashlib.sha256(result.stdout.encode("utf-8")).hexdigest() == digest


def test_boroczky_text_matches_readme(runner):
    result = runner.invoke(main, ["boroczky", "--m", "8"])
    assert result.exit_code == 0
    assert result.output.splitlines() == _readme_output("ordlines boroczky --m 8", 2)


_BOROCZKY_PINS = json.loads((Path(__file__).parent / "boroczky_pins.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(_BOROCZKY_PINS["stdout"]))
def test_boroczky_stdout_is_pinned(runner, key):
    """The exact stdout of ``boroczky --m M`` and ``--m M --json``."""
    m, mode = key.split("/")
    result = runner.invoke(main, ["boroczky", "--m", m] + ["--json"] * (mode == "json"))
    assert (result.exit_code, result.stdout) == (0, _BOROCZKY_PINS["stdout"][key])


def test_boroczky_command(runner):
    result = runner.invoke(main, ["boroczky", "--m", "6", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["ordinary"] == 6
    assert payload["t"] == {"2": 6, "3": 15, "6": 1}

    result = runner.invoke(main, ["boroczky", "--m", "7"])
    assert result.exit_code != 0


def test_search_command(runner, tmp_path):
    out = tmp_path / "best.txt"
    result = runner.invoke(
        main,
        ["search", "--n", "6", "--alpha", "1", "--iters", "30", "--seed", "1", "-o", str(out)],
    )
    assert result.exit_code == 0, _everything(result)
    best = read_pointset_file(str(out))
    assert len(best) == 6
    report = json.loads((tmp_path / "best.txt.json").read_text(encoding="utf-8"))
    assert report["params"]["n"] == 6
    assert report["params"]["alpha"]["exact"] == "1"
    assert report["trace"][0][0] == 0
    assert report["trace"][-1][1] == report["best_count"]

    bad_init = _gen(runner, tmp_path, "grid", "--m", "3", name="init2d.txt")
    result = runner.invoke(
        main,
        [
            "search", "--n", "9", "--alpha", "1", "--iters", "5",
            "--init", str(bad_init), "-o", str(tmp_path / "b2.txt"),
        ],
    )
    assert result.exit_code != 0


def test_unwritable_output_is_a_usage_error(runner, tmp_path):
    search = ["search", "--n", "6", "--alpha", "1", "--iters", "5"]
    (tmp_path / "report.txt.json").mkdir()  # the search report's own file
    cases = [
        (["gen", "grid", "--m", "3"], tmp_path / "missing" / "x.txt"),
        (search, tmp_path / "missing" / "b.txt"),
        (search, tmp_path / "report.txt"),
    ]
    for args, out in cases:
        result = runner.invoke(main, [*args, "-o", str(out)])
        assert result.exit_code == 1, _everything(result)
        assert isinstance(result.exception, SystemExit)
        assert "Error: cannot write" in _everything(result)


def test_search_checks_its_outputs_before_the_run(runner, tmp_path, monkeypatch):
    runs = []
    monkeypatch.setattr(_defining_module("minimize_ordinary"), "minimize_ordinary", runs.append)
    (tmp_path / "report.txt.json").mkdir()
    search = ["search", "--n", "6", "--alpha", "1", "--iters", "5"]
    for out in (tmp_path / "missing" / "b.txt", tmp_path / "report.txt"):
        result = runner.invoke(main, [*search, "-o", str(out)])
        assert result.exit_code == 1, _everything(result)
        assert "Error: cannot write" in _everything(result)
    assert runs == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt.json"]


def test_search_leaves_no_set_without_its_report(runner, tmp_path, monkeypatch):
    out = tmp_path / "b.txt"

    def run_then_block_the_report(config):
        result = minimize_ordinary(config)
        (tmp_path / "b.txt.json").mkdir()
        return result

    monkeypatch.setattr(_defining_module("minimize_ordinary"), "minimize_ordinary", run_then_block_the_report)
    search = ["search", "--n", "6", "--alpha", "1", "--iters", "5"]
    result = runner.invoke(main, [*search, "-o", str(out)])
    assert result.exit_code == 1, _everything(result)
    assert "Error: cannot write" in _everything(result)
    assert not out.exists()


def test_random_draws_past_the_bound_are_refused(runner, tmp_path):
    out = str(tmp_path / "x.txt")
    cases = [
        ["gen", "random", "--n", "10", "--bound", "1", "-o", out],
        ["search", "--n", "28", "--alpha", "1/2", "--iters", "1", "--bound", "1", "-o", out],
    ]
    for args in cases:
        result = runner.invoke(main, args)
        assert result.exit_code == 1, _everything(result)
        assert "Error: bound 1 allows only" in result.output


# --- the error boundary ---------------------------------------------------
# One library call per leaf command, patched in the module that defines it to
# raise. Every leaf of ``main`` needs an entry (test_every_command_has_a_boundary_case).

_SKEW3 = write_pointset(gen_two_skew(3))
_GRID2 = "dim=2 kind=affine field=Q\n0 0\n1 0\n0 1\n1 1\n"

_BOUNDARY_CASES = {
    ("gen",): ("gen_grid2d", ["gen", "grid", "--m", "3", "-o", "{out}"]),
    ("stats",): ("span_summary", ["stats", "{skew}"]),
    ("project",): ("project_from", ["project", "{skew}", "--center", "0"]),
    ("verify", "sylvester-gallai"): (
        "verify_sylvester_gallai",
        ["verify", "sylvester-gallai", "{grid}"],
    ),
    ("verify", "skew-bound"): (
        "verify_skew_bound",
        ["verify", "skew-bound", "{skew}", "--line1", "0,1", "--line2", "3,4"],
    ),
    ("verify", "almost-coplanar"): (
        "verify_almost_coplanar",
        ["verify", "almost-coplanar", "{skew}", "--k", "1"],
    ),
    ("verify", "concurrent"): (
        "concurrent_lines_probe",
        ["verify", "concurrent", "{grid}", "--apex", "0,0"],
    ),
    ("constants",): (
        "bound_constants",
        ["constants", "--alpha", "1/2", "--beta", "2/3", "--gamma", "1/9"],
    ),
    ("boroczky",): ("boroczky_model", ["boroczky", "--m", "6"]),
    ("search",): (
        "minimize_ordinary",
        ["search", "--n", "6", "--alpha", "1", "--iters", "1", "-o", "{out}"],
    ),
}


def _leaf_commands(group, path=()):
    for name, command in group.commands.items():
        if isinstance(command, click.Group):
            yield from _leaf_commands(command, path + (name,))
        else:
            yield path + (name,)


def test_every_command_has_a_boundary_case():
    assert sorted(_leaf_commands(main)) == sorted(_BOUNDARY_CASES)


def _invoke_raising(runner, tmp_path, monkeypatch, case, exc):
    def boom(*args, **kwargs):
        raise exc

    name, argv = _BOUNDARY_CASES[case]
    monkeypatch.setattr(_defining_module(name), name, boom)
    (tmp_path / "skew.txt").write_text(_SKEW3, encoding="utf-8")
    (tmp_path / "grid.txt").write_text(_GRID2, encoding="utf-8")
    paths = {p: str(tmp_path / f"{p}.txt") for p in ("skew", "grid", "out")}
    return runner.invoke(main, [a.format(**paths) for a in argv])


@pytest.mark.parametrize("case", sorted(_BOUNDARY_CASES), ids="-".join)
def test_domain_errors_exit_1_at_the_group(runner, tmp_path, monkeypatch, case):
    result = _invoke_raising(runner, tmp_path, monkeypatch, case, InvariantViolationError("boom"))
    assert result.exit_code == 1, _everything(result)
    assert isinstance(result.exception, SystemExit)
    assert result.output.endswith("Error: boom\n")
    assert "Traceback" not in result.output


@pytest.mark.parametrize("case", sorted(_BOUNDARY_CASES), ids="-".join)
def test_other_errors_are_not_converted(runner, tmp_path, monkeypatch, case):
    result = _invoke_raising(runner, tmp_path, monkeypatch, case, RuntimeError("boom"))
    assert isinstance(result.exception, RuntimeError)
    assert "Error: boom" not in result.output


# A 5,000-digit coordinate: past the interpreter's default integer digit limit.
_HUGE = "1" + "0" * 4999

_FUZZ_FILES = {
    "empty": "",
    "malformed": "dim=3 kind=affine field=Q\n1 2 3\n1 2 x\n",
    "one-point-2d": "dim=2 kind=affine field=Q\n1 2\n",
    "one-point-3d": "dim=3 kind=affine field=Q\n1 2 3\n",
    "collinear-2d": "dim=2 kind=affine field=Q\n1 0\n2 0\n3 0\n",
    "collinear-3d": "dim=3 kind=affine field=Q\n1 1 1\n2 2 2\n3 3 3\n4 4 4\n",
    "wrong-kind": "dim=2 kind=projective field=Q\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n",
    "huge-2d": f"dim=2 kind=affine field=Q\n0 0\n{_HUGE} 0\n0 1\n",
    "huge-3d": f"dim=3 kind=affine field=Q\n0 0 0\n{_HUGE} 0 0\n0 1 0\n0 0 1\n",
}

_FUZZ_COMMANDS = {
    "stats": ["stats", "{f}"],
    "stats-planes": ["stats", "--planes", "{f}"],
    "project": ["project", "{f}", "--center", "0"],
    "project-trace": ["project", "{f}", "--center", "0", "--trace"],
    "sylvester-gallai": ["verify", "sylvester-gallai", "{f}"],
    "skew-bound": ["verify", "skew-bound", "{f}"],
    "skew-bound-lines": ["verify", "skew-bound", "{f}", "--line1", "0,1", "--line2", "1,2"],
    "almost-coplanar": ["verify", "almost-coplanar", "{f}", "--k", "1"],
    "concurrent": ["verify", "concurrent", "{f}", "--apex", "0,0"],
    "search-init": [
        "search", "--n", "4", "--alpha", "1", "--iters", "3", "--init", "{f}", "-o", "{out}",
    ],
}


@pytest.mark.parametrize("file_name", sorted(_FUZZ_FILES))
@pytest.mark.parametrize("command", sorted(_FUZZ_COMMANDS))
def test_cli_fuzz_never_raises(runner, tmp_path, command, file_name):
    path = tmp_path / "input.txt"
    path.write_text(_FUZZ_FILES[file_name], encoding="utf-8")
    args = [
        a.format(f=str(path), out=str(tmp_path / "best.txt")) for a in _FUZZ_COMMANDS[command]
    ]
    result = runner.invoke(main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        f"{type(result.exception).__name__}: {result.exception}"
    )
    if result.exit_code == 1:
        assert "Error:" in _everything(result)
    assert _pin_digest(result, tmp_path) == _PINS[f"fuzz/{command}/{file_name}"]


@pytest.mark.parametrize("command", sorted(_FUZZ_COMMANDS))
def test_non_utf8_file_is_a_usage_error(runner, tmp_path, command):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"dim=3 kind=affine field=Q\n1 2 3\n# caf\xe9 \xff\n")
    args = [a.format(f=str(path), out=str(tmp_path / "out.txt")) for a in _FUZZ_COMMANDS[command]]
    result = runner.invoke(main, args)
    assert result.exit_code == 1, _everything(result)
    assert isinstance(result.exception, SystemExit)
    assert f"Error: cannot read {path}: 'utf-8' codec can't decode" in _everything(result)


def test_numbers_past_the_digit_limit_are_read_and_printed(runner, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text(_FUZZ_FILES["huge-2d"], encoding="utf-8")
    result = runner.invoke(main, ["stats", str(path)])
    assert (result.exit_code, result.output) == (
        0,
        "n=3 kind=affine2 field=Q\nspanned lines: 3   ordinary: 3   max collinear: 2\nt: 2:3\n",
    )
    # Each coordinate is under the limit; the witness x + b*y + c has b = 10^2450
    # and c = -10^4850, and the other two lines have larger leading entries.
    b, y = "1" + "0" * 2450, "1" + "0" * 2400
    path.write_text(f"dim=2 kind=affine field=Q\n0 {y}\n-{b} {y[:-1]}1\n1 0\n", encoding="utf-8")
    result = runner.invoke(main, ["verify", "sylvester-gallai", str(path)])
    assert (result.exit_code, result.output) == (
        0,
        f"holds: ordinary line with coefficients (1, {b}, -1{'0' * 4850})\n",
    )


def test_main_restores_the_digit_limit(runner, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text(_FUZZ_FILES["huge-3d"], encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4400)  # under the file's 5,000 digits
    try:
        assert runner.invoke(main, ["stats", "--planes", str(path)]).exit_code == 0
        assert sys.get_int_max_str_digits() == 4400
        failed = runner.invoke(main, ["project", str(path), "--center", "9"])
        assert failed.exit_code == 1, _everything(failed)
        assert sys.get_int_max_str_digits() == 4400
    finally:
        sys.set_int_max_str_digits(limit)


# --- pinned output --------------------------------------------------------
# sha256 of (exit code, stdout, stderr) per invocation, with the test's own
# directory written as <tmp>. The table (cli_pins.json) was recorded before the
# CLI's error handling moved into the group, so a change to any message, stream
# or exit status of these commands shows up here.

_PINS = json.loads((Path(__file__).parent / "cli_pins.json").read_text(encoding="utf-8"))

_ERROR_CASES = {
    "gen-conflict": ["gen", "skew", "-c", "grid", "--m", "3", "-o", "{out}"],
    "gen-unknown": ["gen", "mystery", "-o", "{out}"],
    "gen-none": ["gen", "-o", "{out}"],
    "gen-skew-no-m": ["gen", "skew", "-o", "{out}"],
    "gen-skew-small": ["gen", "skew", "--m", "1", "-o", "{out}"],
    "gen-near-no-k": ["gen", "near-coplanar", "--n", "10", "-o", "{out}"],
    "gen-near-tie": ["gen", "near-coplanar", "--n", "7", "--k", "3", "-o", "{out}"],
    "gen-near-k0": ["gen", "near-coplanar", "--n", "7", "--k", "0", "-o", "{out}"],
    "gen-heavy-no-alpha": ["gen", "coplanar-heavy", "--n", "10", "-o", "{out}"],
    "gen-heavy-bad-alpha": ["gen", "coplanar-heavy", "--n", "10", "--alpha", "x", "-o", "{out}"],
    "gen-heavy-zero-den": ["gen", "coplanar-heavy", "--n", "10", "--alpha", "1/0", "-o", "{out}"],
    "gen-heavy-small": ["gen", "coplanar-heavy", "--n", "4", "--alpha", "1/2", "-o", "{out}"],
    "gen-random-no-n": ["gen", "random", "-o", "{out}"],
    "gen-random-n0": ["gen", "random", "--n", "0", "-o", "{out}"],
    "gen-random-dim4": ["gen", "random", "--n", "5", "--dim", "4", "-o", "{out}"],
    "gen-random-bound0": ["gen", "random", "--n", "5", "--bound", "0", "-o", "{out}"],
    "gen-random-seed": ["gen", "random", "--n", "5", "--seed", "-1", "-o", "{out}"],
    "gen-grid-no-m": ["gen", "grid", "-o", "{out}"],
    "gen-grid-small": ["gen", "grid", "--m", "1", "-o", "{out}"],
    "gen-unwritable": ["gen", "grid", "--m", "3", "-o", "{tmp}/missing/x.txt"],
    "gen-no-output": ["gen", "grid", "--m", "3"],
    "gen-bad-int": ["gen", "grid", "--m", "three", "-o", "{out}"],
    "constants-no-alpha": ["constants", "--beta", "2/3", "--gamma", "1/9"],
    "constants-bad-alpha": ["constants", "--alpha", "x", "--beta", "2/3", "--gamma", "1/9"],
    "constants-bad-beta": ["constants", "--alpha", "1/2", "--beta", "1/0", "--gamma", "1/9"],
    "constants-alpha-range": ["constants", "--alpha", "3/2", "--beta", "2/3", "--gamma", "1/9"],
    "constants-beta-range": ["constants", "--alpha", "1/2", "--beta", "0", "--gamma", "1/9"],
    "constants-gamma-range": ["constants", "--grid", "--beta", "2/3", "--gamma", "1"],
    "constants-no-beta": ["constants", "--alpha", "1/2", "--gamma", "1/9"],
    "boroczky-odd": ["boroczky", "--m", "7"],
    "boroczky-small": ["boroczky", "--m", "2"],
    "boroczky-no-m": ["boroczky"],
    "search-n3": ["search", "--n", "3", "--alpha", "1", "--iters", "1", "-o", "{out}"],
    "search-cap": ["search", "--n", "6", "--alpha", "1/3", "--iters", "1", "-o", "{out}"],
    "search-bad-alpha": ["search", "--n", "6", "--alpha", "a", "--iters", "1", "-o", "{out}"],
    "search-iters": ["search", "--n", "6", "--alpha", "1", "--iters", "-1", "-o", "{out}"],
    "search-bound": [
        "search", "--n", "6", "--alpha", "1", "--iters", "1", "--bound", "0", "-o", "{out}",
    ],
    "search-seed": [
        "search", "--n", "6", "--alpha", "1", "--iters", "1", "--seed", "-1", "-o", "{out}",
    ],
    "search-big-seed": [
        "search", "--n", "6", "--alpha", "1", "--iters", "1", "--seed", str(2**64), "-o", "{out}",
    ],
    "search-missing-init": [
        "search", "--n", "6", "--alpha", "1", "--iters", "1", "--init", "{tmp}/none.txt",
        "-o", "{out}",
    ],
    "search-init-size": [
        "search", "--n", "6", "--alpha", "1", "--iters", "1", "--init", "{f}", "-o", "{out}",
    ],
    "search-init-cap": [
        "search", "--n", "4", "--alpha", "3/4", "--iters", "1", "--init", "{f}", "-o", "{out}",
    ],
    "search-unwritable": [
        "search", "--n", "6", "--alpha", "1", "--iters", "1", "-o", "{tmp}/missing/b.txt",
    ],
    "search-no-iters": ["search", "--n", "6", "--alpha", "1", "-o", "{out}"],
}

# The --init file of the error cases: four points of the plane z = 0, too few
# for n = 6 and over the cap 3 at n = 4.
_PIN_INIT = "dim=3 kind=affine field=Q\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n"


def _pin_digest(result, tmp_path) -> str:
    out, err = (s.replace(str(tmp_path), "<tmp>") for s in (result.stdout, result.stderr))
    text = json.dumps([result.exit_code, out, err])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(_ERROR_CASES))
def test_error_paths_are_pinned(runner, tmp_path, case):
    init = tmp_path / "init.txt"
    init.write_text(_PIN_INIT, encoding="utf-8")
    args = [
        a.format(f=str(init), out=str(tmp_path / "out.txt"), tmp=str(tmp_path))
        for a in _ERROR_CASES[case]
    ]
    result = runner.invoke(main, args)
    assert result.exit_code != 0, _everything(result)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert _pin_digest(result, tmp_path) == _PINS[f"error/{case}"], _everything(result)


_PLANE_SETS = {
    "coplanar-heavy": ["coplanar-heavy", "--n", "30", "--alpha", "1/2", "--seed", "2"],
    "near-coplanar": ["near-coplanar", "--n", "14", "--k", "4", "--seed", "1"],
    "grid-2d": ["grid", "--m", "4"],
    "collinear-3d": None,  # _FUZZ_FILES["collinear-3d"]
}


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("name", sorted(_PLANE_SETS))
def test_stats_planes_is_pinned(runner, tmp_path, name, as_json):
    if _PLANE_SETS[name] is None:
        path = tmp_path / "pts.txt"
        path.write_text(_FUZZ_FILES[name], encoding="utf-8")
    else:
        path = _gen(runner, tmp_path, *_PLANE_SETS[name])
    result = runner.invoke(main, ["stats", "--planes", str(path)] + ["--json"] * as_json)
    key = f"stats-planes/{name}/{'json' if as_json else 'text'}"
    assert _pin_digest(result, tmp_path) == _PINS[key], _everything(result)


_KELLY_PINS = json.loads((Path(__file__).parent / "kelly_pins.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("box", [(5, 3, 3), (7, 7, 1)], ids=["box533", "box771"])
def test_project_trace_json_is_pinned(runner, tmp_path, box):
    P, centre = integer_box(*box)
    path = tmp_path / "box.txt"
    path.write_text(write_pointset(P), encoding="utf-8")
    result = runner.invoke(main, ["project", str(path), "--center", str(centre), "--trace", "--json"])
    key = "box" + "".join(map(str, box))
    assert _pin_digest(result, tmp_path) == _KELLY_PINS["project-trace-json"][key], _everything(result)
