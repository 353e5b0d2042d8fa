"""Expression grammar, canonical printing, command dispatch, exit codes,
and the JSON report document."""

import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest

import pdfol
from pdfol.cli import main
from pdfol.errors import InputError
from pdfol.parser import parse_expr, print_form
from pdfol.report import canonical_bytes, encode
from pdfol.rings import rational
from pdfol.series import Series2

SADDLE_EXPR = "d(y^2+x^4) + -5*x^2*(1+x)*dy"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("FF_ORDER", raising=False)
    monkeypatch.delenv("FF_PRECISION", raising=False)


# ------------------------------------------------------------------ parser


def test_parse_differential_expansion():
    e = parse_expr("d(y^2+x^4)")
    assert dict(e.form.a.coeffs) == {(3, 0): rational(4)}
    assert dict(e.form.b.coeffs) == {(0, 1): rational(2)}


def test_parse_saddle_expression():
    e = parse_expr(SADDLE_EXPR)
    assert dict(e.form.b.coeffs) == {(0, 1): rational(2),
                                     (2, 0): rational(-5),
                                     (3, 0): rational(-5)}


def test_syntax_error_carries_offset():
    with pytest.raises(InputError, match="offset 6"):
        parse_expr("dx + (")


def test_unknown_symbol():
    with pytest.raises(InputError, match="unknown symbol 'w'"):
        parse_expr("w*dx")
    # the parameter symbol exists only once declared
    with pytest.raises(InputError, match="unknown symbol 'b'"):
        parse_expr("b*x*dx")
    assert parse_expr("b*x*dx", mode="param:b").form.a.coeffs


def test_zero_form_rejected():
    with pytest.raises(InputError, match="zero form"):
        parse_expr("x*dy - x*dy")
    with pytest.raises(InputError, match="function part"):
        parse_expr("x + dx")


def test_form_products_rejected():
    with pytest.raises(InputError, match="two 1-forms"):
        parse_expr("dx*dy")
    with pytest.raises(InputError, match="exponentiate"):
        parse_expr("dx^2")
    with pytest.raises(InputError, match="of a 1-form"):
        parse_expr("d(x*dx)")


def test_decimal_literal_needs_float_mode():
    with pytest.raises(InputError, match="float mode"):
        parse_expr("0.5*dx")
    assert parse_expr("0.5*dx", mode="float").form.a.coeffs


def test_decimal_literal_must_be_a_finite_double():
    """1e400 overflows a double; it used to become inf, which the float
    ring's zero test then dropped with its term."""
    for mode in ("float", "exact"):
        with pytest.raises(InputError, match="'1e400' at offset 23"):
            parse_expr("d(y^2+x^4) + -5*x^2*(1+1e400*x)*dy", mode)
    form = parse_expr("d(y^2+x^4) + -5*x^2*(1+1e300*x)*dy", "float").form
    assert complex(form.b.coefficient(3, 0)) == pytest.approx(-5e300)


def test_power_stops_at_the_zero_series(monkeypatch):
    """x^n is the zero series past the order, and further products keep
    it: at order 24, x^1000000000 costs the 24 products up to x^25 = 0,
    and ``*dx`` three more, one per slot of the parser's value."""
    calls = []
    mul = Series2.__mul__

    def counted(self, other):
        calls.append(1)
        if len(calls) > 100:
            raise AssertionError("x^n is still multiplying")
        return mul(self, other)

    monkeypatch.setattr(Series2, "__mul__", counted)
    form = parse_expr("x^1000000000*dx + dy", order=24).form
    assert len(calls) <= 24 + 3
    assert form.a.is_zero() and form.a.truncated
    assert form.a.order == 24


def test_unary_sign_chains():
    assert parse_expr("--x*dx") == parse_expr("x*dx")
    assert parse_expr("+-+x*dx") == parse_expr("0 - x*dx")


CORPUS = [
    "dx",
    "dy",
    "x*dx",
    "y*dy",
    "2*dx + 3*dy",
    "-dx",
    "x^2*dx + y^2*dy",
    "1/2*x*dx - 2/3*y*dy",
    "d(y^2+x^4)",
    "d(y^2+x^6)",
    "d(x*y)",
    "d((1+x)*(1+y))",
    "d(y^2+x^4) + -5*x^2*(1+x)*dy",
    "d(y^2+x^4) + 4*x^2*dy",
    "d(y^2+x^6) + 4*x^3*dy",
    "d(y^2+x^4) + -5*x^2*(1+x+x^2)*dy",
    "2*y*dx + x*dy",
    "(2*y + x^3)*dx + (x - y^2)*dy",
    "x*y*dx - x^2*dy",
    "(1+x)^3*dx",
    "d(y^2) + x^5*dy",
    "d(x^4) + y*dy",
    "-1/3*x^2*y*dx + 7*x*y^2*dy",
    "d(y^2+x^8) + 11/2*x^4*dy",
    "x^3*dx - -2*y*dy",
    "(x + y)*(x - y)*dx + dy",
    "d(y^2 + x^4 + x^5)",
    "5*x^2*y^3*dx + 1/7*x^3*y^2*dy",
    "d((y + x^2)^2) + x^3*dy",
    "x^10*dx + y^10*dy",
]


def test_round_trip_corpus():
    assert len(CORPUS) >= 30
    for text in CORPUS:
        first = parse_expr(text)
        printed = print_form(first.form)
        second = parse_expr(printed)
        assert second == first, text
        assert print_form(second.form) == printed, text


def test_round_trip_param_and_float():
    for mode in ("param:b", "float"):
        text = ("d(y^2+x^4) + -5*x^2*(1+b*x)*dy" if mode.startswith("param")
                else "d(y^2+x^4) + -5.0*x^2*(1+x)*dy")
        first = parse_expr(text, mode=mode)
        printed = print_form(first.form)
        assert parse_expr(printed, mode=mode) == first


def test_mode_validation():
    with pytest.raises(InputError, match="unknown mode"):
        parse_expr("dx", mode="symbolic")
    with pytest.raises(InputError, match="reserved"):
        parse_expr("dx", mode="param:dy")
    with pytest.raises(InputError, match="identifier"):
        parse_expr("dx", mode="param:2b")


# --------------------------------------------------------------- commands


def test_cli_gpd_detects_resonance():
    code, out, _ = run(["gpd", "--p", "2", "--alpha", "-5/1"])
    assert code == 0
    assert "m: 6" in out and "z1: 2" in out and "z2: 1/2" in out
    assert "alpha_check: True" in out


def test_cli_gpd_negative_answer():
    code, out, _ = run(["gpd", "--p", "2", "--alpha", "-13/3"])
    assert code == 0
    assert "resonant: False" in out


def test_cli_gpd_irrational_exact_exits_3():
    code, out, err = run(["gpd", "--p", "2", "--m", "2"])
    assert code == 3
    assert "alpha irrational in exact mode" in err
    assert "-4.24264" in err
    code, out, _ = run(["gpd", "--p", "2", "--m", "2", "--mode", "float"])
    assert code == 0
    assert "-4.24264" in out


def test_cli_classify_pipeline():
    code, out, _ = run(["classify", "--expr", SADDLE_EXPR,
                        "--order", "24", "--mode", "exact"])
    assert code == 0
    assert "case: saddle" in out
    assert "subcase: resonant_pair" in out
    assert "verdict: GeneralizedPD" in out
    assert "epsilon: 5934060/1" in out


def test_cli_normal_form():
    code, out, _ = run(["normal-form", "--expr", SADDLE_EXPR])
    assert code == 0
    assert "m: 6" in out and "order: 18" in out
    assert "epsilon: 5934060" in out
    assert "residual_valuation: inf" in out


@pytest.mark.parametrize("mode, expr", [
    ("exact", SADDLE_EXPR), ("float", SADDLE_EXPR),
    ("param:b", "d(y^2+x^4) + -5*x^2*(1+b*x)*dy")])
@pytest.mark.parametrize("order", [[], ["--order", "24"]])
def test_cli_normal_form_prints_the_report_section(mode, expr, order):
    code, out, err = run(["normal-form", "--mode", mode, "--expr", expr]
                         + order)
    assert code == 0, err
    shown = dict(line.split(": ", 1) for line in out.splitlines())
    code, out, err = run(["report", "--json", "--mode", mode, "--expr", expr]
                         + order)
    assert code == 0, err
    section = json.loads(out)["canonical"]["normal_form"]
    assert int(shown["m"]) == section["m"]
    assert int(shown["order"]) == section["order"] == (int(order[1]) if order
                                                       else 18)
    assert shown["residual_valuation"] == str(section["residual_valuation"])
    if mode == "float":
        epsilon = encode(complex(shown["epsilon"].replace(" ", "")))
    else:
        form = parse_expr(shown["epsilon"] + "*dx", mode).form
        epsilon = encode(form.a.coefficient(0, 0), form.ring)
    assert epsilon == section["epsilon"]


@pytest.mark.parametrize("expr", [
    "d(y^2+x^3) + 4*x^2*dy",              # cusp
    "d(y^2+x^4) + 3*x^2*(1+x)*dy"])       # saddle, simple pair
def test_cli_normal_form_without_resonance_exits_3(expr):
    code, out, err = run(["normal-form", "--expr", expr])
    assert (code, out) == (3, "")
    assert err.startswith("error[math]: no Poincare-Dulac resonance")


def test_cli_normal_form_below_the_obstruction_degree_exits_4():
    code, out, err = run(["normal-form", "--expr", SADDLE_EXPR,
                          "--order", "5"])
    assert (code, out) == (4, "")
    assert err == ("error[precision]: normal form (m=6, N=5): order cannot "
                   "reach the obstruction at degree m\n")


def test_cli_dx_term_above_the_parse_order_exits_4():
    # parsed at the default order 24, the only dx-term 32*x^31 is dropped
    expr = "d(y^2+x^32) + -41/10*x^16*dy"
    code, out, err = run(["classify", "--expr", expr])
    assert (code, out) == (4, "")
    assert err.startswith("error[precision]: the dx-coefficient vanishes "
                          "to its truncation order 24")
    code, out, err = run(["classify", "--expr", expr, "--order", "50"])
    assert code == 0, err
    assert "case: saddle" in out


def test_cli_blowup_chain_and_chart():
    code, out, _ = run(["blowup", "--expr", SADDLE_EXPR, "--times", "2"])
    assert code == 0
    assert "labels: D1 D2" in out
    assert "self-intersections: -2 -1" in out
    code, out, _ = run(["blowup", "--expr", SADDLE_EXPR, "--times", "1",
                        "--chart", "2"])
    assert code == 0
    assert "chart 2" in out


def test_cli_cs_index():
    code, out, _ = run(["cs-index", "--expr", "2*y*dx + x*dy"])
    assert code == 0
    assert "cs_index: -1/2" in out


def test_cli_holonomy_formal():
    code, out, _ = run(["holonomy", "--formal", "--m", "2", "--order", "3"])
    assert code == 0
    assert "multiplier:" in out and "series:" in out


def test_cli_holonomy_numeric():
    code, out, _ = run(["holonomy", "--numeric", "--radius", "1.0",
                        "--samples", "0.05", "--mode", "float",
                        "--expr", "x*dy - 2*y*dx - x^2*dx"])
    assert code == 0
    assert "0.05 ->" in out and "-0.0499" in out


@pytest.mark.parametrize("radius, samples", [
    ("nan", "0.05"), ("inf", "0.05"), ("1.0", "nan"), ("1.0", "0.05,inf")])
def test_cli_holonomy_non_finite_input_is_input_error(radius, samples):
    code, out, err = run(["holonomy", "--numeric", "--radius", radius,
                          "--samples", samples, "--mode", "float",
                          "--expr", "x*dy - 2*y*dx - x^2*dx"])
    assert code == 2 and out == ""
    assert err.startswith("error[input]: loop ")


@pytest.mark.parametrize("center", ["abc", "1/0"])
def test_cli_holonomy_bad_center_is_input_error(center):
    code, out, err = run(["holonomy", "--numeric", "--samples", "0.1",
                          "--center", center, "--mode", "float",
                          "--expr", "x*dy - 2*y*dx - x^2*dx"])
    assert code == 2 and out == ""
    assert err.startswith("error[input]: --center must be rational")


def test_cli_holonomy_center_beyond_a_float_is_input_error():
    code, out, err = run(["holonomy", "--numeric", "--samples", "0.05",
                          "--center", "1e400", "--mode", "float",
                          "--expr", "x*dy - 2*y*dx - x^2*dx"])
    assert code == 2 and out == ""
    assert err.startswith("error[input]: --center ")


def test_cli_holonomy_overflow_is_one_math_error():
    """A lift that overflows ends in one error[math] line on the real
    stderr, with no arithmetic warnings before it, and exit 3."""
    src = os.path.dirname(os.path.dirname(pdfol.__file__))
    argv = ["holonomy", "--numeric", "--radius", "1.0", "--samples", "100",
            "--expr", "dx - 1e300*x^3*dy", "--mode", "float"]
    done = subprocess.run([sys.executable, "-m", "pdfol.cli"] + argv,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 3 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error[math]: holonomy transport failed at ")


def test_cli_parameter_dependent_alpha_names_the_shape():
    code, out, err = run(["classify", "--mode", "param:b",
                          "--expr", "d(y^2+x^4)+b*x^2*dy"])
    assert code == 3 and out == ""
    assert err.startswith("error[math]: prenormal shape ")
    for part in ("alpha", "x^2", "is b;", "nonzero constant"):
        assert part in err


def test_cli_exit_codes_cover_error_classes():
    code, _, err = run(["classify", "--expr", "dx + ("])
    assert code == 2 and "error[input]" in err
    code, _, err = run(["classify", "--expr", "x*dx + y*dy"])
    assert code == 3 and "error[math]" in err
    code, _, err = run(["normal-form", "--expr", SADDLE_EXPR, "--order", "4"])
    assert code == 4 and "error[precision]" in err


def test_cli_chart_form_zero_to_order_exits_4():
    # the unit runs past the parse order, so the chart form is truncated
    # and cannot be recentred at the divisor point z = 2
    code, out, err = run(["report", "--json", "--mode", "exact",
                          "--order", "18", "--expr",
                          "d(y^2+x^4)-5*x^2*(1+x+x^40)*dy"])
    assert code == 4 and out == ""
    assert "error[precision]" in err
    assert "recenter at z = 2, order 15" in err


@pytest.mark.parametrize("mode", ["exact", "float", "param:b"])
def test_cli_both_spellings_of_a_polynomial_agree(mode):
    """d(P) parses P one degree further, so its differential keeps the
    parse order: d(x^9) at order 8 is the exact 9*x^8*dx, and both
    spellings of the (4,5) example give one epsilon at order 8."""
    form = parse_expr("d(x^9) + dy", "exact", 8).form
    assert (form.a.coeffs, form.a.truncated) == ({(8, 0): 9}, False)
    unit = "-13/3*x^4*(1+2*x+x^2-1/2*x^3+1/3*x^4)*dy"
    outs = []
    for text in ("d(y^2+x^8)+" + unit, "8*x^7*dx+2*y*dy+" + unit):
        code, out, err = run(["classify", "--mode", mode, "--order", "8",
                              "--expr", text])
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]
    assert "verdict: GeneralizedPD" in outs[0]
    if mode == "exact":
        assert "epsilon: -5823326453789/32768\n" in outs[0]


@pytest.mark.parametrize("argv", [
    ["classify", "--expr", SADDLE_EXPR],
    ["report", "--json", "--expr", SADDLE_EXPR],
    ["normal-form", "--expr", SADDLE_EXPR],
    ["blowup", "--expr", SADDLE_EXPR],
    ["holonomy", "--formal", "--m", "2"]])
@pytest.mark.parametrize("order", ["-3", "0"])
def test_cli_order_below_one_is_input_error(argv, order, monkeypatch):
    """From the flag and from FF_ORDER alike; --order 0 used to fall back
    to the default order, and -3 to a traceback."""
    code, out, err = run(argv + ["--order", order])
    assert (code, out) == (2, "")
    assert err == "error[input]: --order must be at least 1, got %s\n" % order
    monkeypatch.setenv("FF_ORDER", order)
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err == "error[input]: FF_ORDER must be at least 1, got %s\n" % order


def test_cli_float_literal_overflow_is_input_error():
    code, out, err = run(["classify", "--mode", "float", "--expr",
                          "d(y^2+x^4)+-5.0*x^2*(1+1e400*x)*dy"])
    assert (code, out) == (2, "")
    assert err.startswith("error[input]: decimal literal '1e400'")


def test_cli_requires_expression():
    code, _, err = run(["classify"])
    assert code == 2
    code, _, err = run(["classify", "--expr", "dx", "--input", "f"])
    assert code == 2 and "mutually exclusive" in err


def test_env_defaults(monkeypatch):
    cusp = "d(y^2+x^3) + 4*x^2*dy"
    monkeypatch.setenv("FF_ORDER", "30")
    code, out, _ = run(["report", "--json", "--expr", cusp])
    assert code == 0
    assert json.loads(out)["canonical"]["input"]["order"] == 30
    code, out, _ = run(["report", "--json", "--expr", cusp,
                        "--order", "26"])
    assert json.loads(out)["canonical"]["input"]["order"] == 26
    monkeypatch.setenv("FF_ORDER", "nope")
    code, _, err = run(["classify", "--expr", cusp])
    assert code == 2 and "FF_ORDER" in err
    monkeypatch.delenv("FF_ORDER")
    monkeypatch.setenv("FF_PRECISION", "52")
    code, _, err = run(["classify", "--expr", cusp, "--mode", "float"])
    assert code == 3  # below the mantissa floor


# every command that builds a float ring reads FF_PRECISION
FLOAT_COMMANDS = (["classify", "--mode", "float", "--expr", SADDLE_EXPR],
                  ["holonomy", "--formal", "--m", "2"])


@pytest.mark.parametrize("bits", ["0", "-64"])
def test_ff_precision_below_one_is_input_error(bits, monkeypatch):
    monkeypatch.setenv("FF_PRECISION", bits)
    for argv in FLOAT_COMMANDS:
        code, out, err = run(argv)
        assert (code, out) == (2, ""), argv
        assert err == ("error[input]: FF_PRECISION must be at least 1, "
                       "got %s\n" % bits)


def test_ff_precision_below_the_mantissa_floor_names_it(monkeypatch):
    monkeypatch.setenv("FF_PRECISION", "10")
    for argv in FLOAT_COMMANDS:
        code, out, err = run(argv)
        assert (code, out) == (3, ""), argv
        assert err == ("error[math]: ComplexApprox needs at least 53 "
                       "mantissa bits, got 10\n")


def test_input_file_and_directory(tmp_path):
    one = tmp_path / "one.txt"
    one.write_text(SADDLE_EXPR + "\n", encoding="utf-8")
    code, out, _ = run(["classify", "--input", str(one)])
    assert code == 0 and "verdict: GeneralizedPD" in out
    (tmp_path / "two.txt").write_text("d(y^2+x^4) + 4*x^2*dy\n",
                                      encoding="utf-8")
    code, out, _ = run(["classify", "--input", str(tmp_path)])
    assert code == 0
    assert "== one.txt ==" in out and "== two.txt ==" in out
    code, out, _ = run(["report", "--json", "--input", str(tmp_path)])
    assert code == 0
    docs = json.loads(out)
    assert isinstance(docs, list) and len(docs) == 2


@pytest.mark.parametrize("layout", ["subdirectory", "file",
                                    "file in directory", "missing file"])
def test_unreadable_input_is_input_error(tmp_path, layout):
    """A subdirectory of an input directory, bytes that are not UTF-8 and
    a file that is not there exit 2 naming the path, not with a
    traceback."""
    (tmp_path / "one.txt").write_text(SADDLE_EXPR + "\n", encoding="utf-8")
    bad = tmp_path / "two.txt"
    if layout == "subdirectory":
        bad.mkdir()
    elif layout != "missing file":
        bad.write_bytes(b"\xff\xfe dx")
    path = tmp_path if layout in ("subdirectory", "file in directory") else bad
    code, out, err = run(["classify", "--input", str(path)])
    assert (code, out) == (2, ""), layout
    assert err.startswith("error[input]: cannot read input %r" % str(bad))


def test_deep_nesting_is_input_error():
    deep = "(" * 1000 + "dx" + ")" * 1000
    code, out, err = run(["classify", "--expr", deep])
    assert (code, out) == (2, "")
    assert err == "error[input]: expression nests too deeply\n"
    with pytest.raises(InputError, match="nests too deeply"):
        parse_expr(deep)
    assert dict(parse_expr("(" * 100 + "dx" + ")" * 100).form.a.coeffs) \
        == {(0, 0): rational(1)}


# ----------------------------------------------------------------- report


REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "canonical", "timing"],
    "properties": {
        "schema_version": {"const": "1"},
        "timing": {
            "type": "object",
            "required": ["seconds"],
            "properties": {"seconds": {"type": "number"}},
        },
        "canonical": {
            "type": "object",
            "required": ["tool", "input", "classification", "reduction",
                         "singular_points", "normal_form", "holonomy"],
            "properties": {
                "tool": {
                    "type": "object",
                    "required": ["name", "version"],
                },
                "input": {
                    "type": "object",
                    "required": ["source", "canonical", "mode", "order"],
                },
                "classification": {
                    "type": "object",
                    "required": ["case", "verdict"],
                },
                "reduction": {"type": ["object", "null"]},
                "singular_points": {"type": ["array", "null"]},
                "normal_form": {"type": ["object", "null"]},
                "holonomy": {"type": ["object", "null"]},
            },
        },
    },
}

RATIONAL = r"^-?\d+/\d+$"


def test_report_json_schema_and_content():
    code, out, _ = run(["report", "--json", "--expr", SADDLE_EXPR])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    canonical = doc["canonical"]
    import re
    assert re.match(RATIONAL, canonical["classification"]["epsilon"])
    assert canonical["classification"]["epsilon"] == "5934060/1"
    assert canonical["normal_form"]["residual_valuation"] == "inf"
    assert canonical["holonomy"]["dichotomy"] == "Abelian"
    assert canonical["holonomy"]["sz_lambda"]["ratio"] == "4/1"
    assert all(re.match(RATIONAL, pt["cs_index"])
               for pt in canonical["singular_points"])
    assert canonical["reduction"]["labels"] == ["D1", "D2"]


def test_report_not_applicable_sections_are_null():
    code, out, _ = run(["report", "--json", "--expr",
                        "d(y^2+x^3) + 4*x^2*dy"])  # cusp: 2p > n
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["canonical"]["classification"]["case"] == "cusp"
    assert doc["canonical"]["normal_form"] is None
    assert doc["canonical"]["holonomy"] is None


def test_report_canonical_section_is_byte_stable():
    _, first, _ = run(["report", "--json", "--expr", SADDLE_EXPR])
    _, second, _ = run(["report", "--json", "--expr", SADDLE_EXPR])
    assert canonical_bytes(json.loads(first)) == \
        canonical_bytes(json.loads(second))


def test_report_text_prints_the_canonical_digest():
    _, text, _ = run(["report", "--expr", SADDLE_EXPR])
    _, out, _ = run(["report", "--json", "--expr", SADDLE_EXPR])
    digest = hashlib.sha256(canonical_bytes(json.loads(out))).hexdigest()
    assert text.splitlines()[-1] == "canonical-sha256: " + digest


def changed_digests(name):
    """The keys of tests/data/``name`` whose recorded exit code and sha256
    of the canonical section of ``report --json`` differ from today's.  A
    key is mode|order|text, and order "default" passes no --order; an
    input that exits non-zero has no section, and only its exit code is
    kept."""
    path = pathlib.Path(__file__).parent / "data" / name
    recorded = json.loads(path.read_text())
    got = {}
    for key in recorded:
        mode, order, text = key.split("|", 2)
        orders = [] if order == "default" else ["--order", order]
        code, out, _ = run(["report", "--json", "--mode", mode] + orders
                           + ["--expr", text])
        digest = (hashlib.sha256(canonical_bytes(json.loads(out))).hexdigest()
                  if code == 0 else None)
        got[key] = {"exit": code, "sha256": digest}
    return [key for key in recorded if got[key] != recorded[key]]


def test_report_canonical_bytes_match_the_recorded_digests():
    """The canonical section on each recorded benchmark input of the
    ``homological`` workload, at its own mode and order, as an earlier
    version of the program wrote it: a change of any byte between
    versions fails here."""
    assert changed_digests("canonical_sha256.json") == []


def test_report_canonical_bytes_at_high_order():
    """The same for the worked example in all three rings at the default
    order, 24 and 30, where the normal form runs longest."""
    assert changed_digests("worked_example_sha256.json") == []


def test_report_param_mode():
    code, out, _ = run(["report", "--json", "--mode", "param:b", "--expr",
                        "d(y^2+x^4) + -5*x^2*(1+b*x)*dy"])
    assert code == 0
    doc = json.loads(out)
    eps = doc["canonical"]["classification"]["epsilon"]
    assert eps["param"] == "b"
    assert eps["coeffs"][6] == "5934060/1"
    assert all(c == "0/1" for c in eps["coeffs"][:6])


def test_report_text_reads_each_input_once(tmp_path, monkeypatch):
    import pdfol.cli as cli
    for name in ("one.txt", "two.txt"):
        (tmp_path / name).write_text("d(y^2+x^4) + 4*x^2*dy\n",
                                     encoding="utf-8")
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    code, out, _ = run(["report", "--input", str(tmp_path)])
    assert code == 0
    assert "== one.txt ==" in out and "== two.txt ==" in out
    assert sorted(opened) == [str(tmp_path / "one.txt"),
                              str(tmp_path / "two.txt")]
