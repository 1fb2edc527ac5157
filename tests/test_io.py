"""Text format: round trips and line-numbered diagnostics."""

import hashlib
import random
from fractions import Fraction

import pytest

from ordlines import (
    Eisenstein,
    ParseError,
    PointSet,
    UsageError,
    affine2,
    gen_grid2d,
    gen_hesse,
    gen_random,
    gen_two_skew,
    parse_pointset,
    read_pointset_file,
    write_pointset,
)


def test_write_parse_write_is_byte_identical():
    rng = random.Random(0)
    catalogue = [gen_two_skew(4), gen_grid2d(3, 4), gen_hesse()]
    for _ in range(100):
        n = rng.randint(4, 10)
        dim = rng.choice((2, 3))
        catalogue.append(gen_random(n, dim, seed=rng.randrange(2**32)))
    for P in catalogue:
        text = write_pointset(P)
        Q = parse_pointset(text)
        assert Q.points == P.points
        assert Q.label == P.label
        assert write_pointset(Q) == text


def test_extension_field_tokens():
    text = write_pointset(gen_hesse())
    assert "field=Qw" in text
    # rational coordinates are still written with an explicit w part
    assert "0+0*w" in text
    P = parse_pointset(text)
    assert P.field_name == "Qw"
    # lenient input: a bare w multiple and a signed composite
    Q = parse_pointset("dim=2 kind=affine field=Qw\n3*w 1+0*w\n-1/2-3/4*w 5\n")
    assert Q.points[0].coords[0] == Eisenstein(0, 3)
    assert Q.points[1].coords == (Eisenstein(Fraction(-1, 2), Fraction(-3, 4)), Eisenstein(5, 0))


def test_header_variants_and_comments():
    text = (
        "\n# a comment\n# label: my points\n"
        "field=Q kind=affine dim=2\n"
        "  1/2   -3  \n"
        "\n# another comment\n0 7\n"
    )
    P = parse_pointset(text)
    assert P.label == "my points"
    assert len(P) == 2
    assert str(P.points[0].coords[0]) == "1/2"


def test_label_only_before_header():
    text = "dim=2 kind=affine field=Q\n# label: too late\n1 2\n"
    assert parse_pointset(text).label == ""


@pytest.mark.parametrize(
    "body, lineno, needle",
    [
        ("dim=2 kind=affine field=Q\n1 x\n", 2, "malformed rational"),
        ("dim=2 kind=affine field=Q\n1 1/0\n", 2, "zero denominator"),
        ("dim=2 kind=affine field=Q\n1 2*w\n", 2, "field=Q"),
        ("dim=3 kind=affine field=Q\n1 2\n", 2, "expected 3 coordinates"),
        ("dim=2 kind=affine field=Q\n1 2\n\n1 2\n", 4, "same as line 2"),
        ("dim=2 kind=affine field=Q foo=1\n1 2\n", 1, "unknown header keys"),
        ("dim=2 kind=affine\n1 2\n", 1, "missing"),
        ("dim=2 kind=affine field=R\n1 2\n", 1, "field tag"),
        ("dim=3 kind=projective field=Q\n1 2 3\n", 1, "unsupported"),
        ("dim=3 kind=affine field=Qw\n1 2 3\n", 1, "planar"),
        ("points ahoy\n", 1, "malformed header entry"),
        ("dim=2 kind=projective field=Q\n0 0 0\n", 2, ""),
        ("dim=2 kind=affine field=Q\n", 1, "no points"),
        ("# nothing here\n", 1, "missing header"),
        ("dim=3 dim=2 kind=affine field=Q\n1 2\n3 4\n", 1, "repeated header key 'dim'"),
        # Only \n, \r\n and \r end a line; str.splitlines would also split at these.
        *[
            (f"dim=2 kind=affine field=Q\n1 2{sep}3 4\n5 6\n", 2, "expected 2 coordinates")
            for sep in "\x0c\x0b\x1c\x1d\x1e\x85\u2028\u2029"
        ],
        ("dim=2 kind=affine field=Q\r\n1 2\r3 4\r\n5 x\n", 4, "malformed rational"),
    ],
)
def test_diagnostics_carry_line_numbers(body, lineno, needle):
    with pytest.raises(ParseError) as excinfo:
        parse_pointset(body)
    assert excinfo.value.line == lineno
    assert needle in str(excinfo.value)
    assert f"line {lineno}:" in str(excinfo.value)


def test_file_round_trip(tmp_path):
    P = gen_random(6, 3, seed=5)
    path = tmp_path / "pts.txt"
    path.write_text(write_pointset(P), encoding="utf-8")
    assert read_pointset_file(str(path)).points == P.points
    with pytest.raises(UsageError, match="cannot read"):
        read_pointset_file(str(tmp_path / "absent.txt"))


@pytest.mark.parametrize(
    "text",
    [
        "dim=2 kind=affine field=Q\n1 2\n3/4 -5\n",
        "# label: marked\ndim=3 kind=affine field=Q\n1 2 3\n0 0 1\n",
    ],
    ids=["header-first", "label-first"],
)
def test_byte_order_mark_is_skipped(tmp_path, text):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert read_pointset_file(str(marked)) == read_pointset_file(str(plain))


@pytest.mark.parametrize("digit", ["٣", "３"], ids=["arabic-indic-3", "fullwidth-3"])
def test_non_ascii_digits_are_malformed(digit):
    # str.isdigit and int() accept these; the file format is ASCII digits only.
    for body in (
        f"dim=2 kind=affine field=Q\n1 2\n4 {digit}\n",
        f"dim=2 kind=affine field=Qw\n1 2\n4 1+{digit}*w\n",
    ):
        with pytest.raises(ParseError, match="malformed rational") as excinfo:
            parse_pointset(body)
        assert excinfo.value.line == 3


def _qw_signs() -> PointSet:
    return PointSet(
        [
            affine2(Eisenstein(Fraction(-1, 2), Fraction(3, 4)), Eisenstein(0, Fraction(-5, 3))),
            affine2(Eisenstein(7, 0), Eisenstein(Fraction(-2, 9), -1)),
            affine2(Eisenstein(Fraction(1, 3), Fraction(-1, 3)), Eisenstein(-4, Fraction(11, 2))),
        ],
        label="qw-signs",
    )


@pytest.mark.parametrize(
    "make, digest",
    [
        (gen_hesse, "817e8f4a6fd040644685b00487d1be1978ee8cc9593b6196404de4cec5f8c949"),
        (_qw_signs, "5a37e26f94e359fe0d2242d508db88b9d39b2e9f638618e5b6856b3527338587"),
    ],
    ids=["hesse", "qw-signs"],
)
def test_golden_written_bytes(make, digest):
    # sha256 of the written file, so any change to how a scalar or the header
    # is written shows up here.
    assert hashlib.sha256(write_pointset(make()).encode("utf-8")).hexdigest() == digest
