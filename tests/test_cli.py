"""End-to-end runs of every CLI command through click's test runner."""

import json

import pytest
from click.testing import CliRunner

from ordlines import PointSet, affine3, read_pointset_file, write_pointset
from ordlines.cli import main


@pytest.fixture
def runner():
    return CliRunner()


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
    assert result.exit_code != 0


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


_FUZZ_FILES = {
    "empty": "",
    "malformed": "dim=3 kind=affine field=Q\n1 2 3\n1 2 x\n",
    "one-point-2d": "dim=2 kind=affine field=Q\n1 2\n",
    "one-point-3d": "dim=3 kind=affine field=Q\n1 2 3\n",
    "collinear-2d": "dim=2 kind=affine field=Q\n1 0\n2 0\n3 0\n",
    "collinear-3d": "dim=3 kind=affine field=Q\n1 1 1\n2 2 2\n3 3 3\n4 4 4\n",
    "wrong-kind": "dim=2 kind=projective field=Q\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n",
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
