"""CLI behavior: golden outputs per format, option handling, exit
codes, and the cache subcommands.  Most tests drive main() in-process;
a couple go through a real subprocess to cover the entry points."""

import hashlib
import json
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import partita
from partita import cli, core
from partita.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scalar_plain(capsys):
    code, out, err = run(capsys, "p", "10", "3")
    assert (code, out, err) == (0, "8\n", "")


def test_scalar_q(capsys):
    code, out, _ = run(capsys, "q", "10", "3")
    assert (code, out) == (0, "4\n")


def test_scalar_json_golden(capsys):
    code, out, _ = run(capsys, "p", "10", "3", "--format", "json")
    assert code == 0
    assert out == '{"kind":"p","params":{"n":10,"m":3,"algorithm":"auto"},"value":"8"}\n'


def test_scalar_csv(capsys):
    code, out, _ = run(capsys, "p", "10", "3", "--format", "csv")
    assert code == 0
    assert out == "n,m,value\n10,3,8\n"


def test_scalar_explain_plain(capsys):
    code, out, _ = run(capsys, "p", "10", "3", "--explain")
    plan = partita.dispatch_plan(10, 3)
    assert code == 0
    assert out == (
        f"8\nchosen={plan.chosen} steps_alg1={plan.alg1} steps_alg2={plan.alg2}\n"
    )


def test_scalar_explain_json(capsys):
    code, out, _ = run(capsys, "p", "400", "80", "--format", "json", "--explain")
    assert code == 0
    payload = json.loads(out)
    plan = partita.dispatch_plan(400, 80)
    assert payload["params"]["chosen"] == plan.chosen == "alg2"
    assert payload["params"]["steps_alg1"] == plan.alg1
    assert payload["params"]["steps_alg2"] == plan.alg2
    assert payload["value"] == str(partita.p_parts(400, 80))


def test_scalar_explain_csv(capsys):
    code, out, _ = run(capsys, "p", "10", "3", "--format", "csv", "--explain")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,m,value,chosen,steps_alg1,steps_alg2"
    assert lines[1].startswith("10,3,8,closed-form,")


def test_scalar_explain_q_uses_shifted_plan(capsys):
    code, out, _ = run(capsys, "q", "20", "4", "--format", "json", "--explain")
    assert code == 0
    payload = json.loads(out)
    shifted_plan = partita.dispatch_plan(20 - 6, 4)
    assert payload["params"]["chosen"] == shifted_plan.chosen
    assert payload["value"] == str(partita.q_parts(20, 4))


@pytest.mark.parametrize(
    "kind, n, m, method, label",
    [
        ("p", 10000, 100, "alg2", partita.ALG2),  # auto takes alg1
        ("p", 400, 80, "alg1", partita.ALG1),  # auto takes alg2
        ("p", 10, 5, "closed", partita.CLOSED_FORM),  # auto takes the fast path
        ("q", 20, 4, "alg1", partita.ALG1),  # auto takes the closed form
        ("q", 20, 4, "alg2", partita.ALG2),
        ("q", 13, 4, "closed", partita.CLOSED_FORM),  # auto takes the fast path
        ("p", 10, 10, "alg2", partita.FAST_PATH),  # answered before any route
        ("q", 5, 3, "alg1", partita.FAST_PATH),  # below the staircase
    ],
)
def test_scalar_explain_names_forced_route(capsys, kind, n, m, method, label):
    count = partita.p_parts if kind == "p" else partita.q_parts
    value = count(n, m)
    args = (kind, str(n), str(m), "--algorithm", method, "--explain")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out.splitlines()[0] == str(value)
    assert out.splitlines()[1].startswith(f"chosen={label} ")
    code, out, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    params = json.loads(out)["params"]
    assert (params["algorithm"], params["chosen"]) == (method, label)


def test_algorithm_forcing_same_value(capsys):
    seen = set()
    for method in ("auto", "alg1", "alg2"):
        code, out, _ = run(capsys, "p", "30", "12", "--algorithm", method)
        assert code == 0
        seen.add(out)
    assert seen == {"366\n"}


@pytest.mark.parametrize(
    "argv", [("30", "12"), ("10", "30"), ("10", "8", "--oracle")], ids="-".join
)
def test_algorithm_closed_out_of_range(capsys, argv):
    code, _, err = run(capsys, "p", *argv, "--algorithm", "closed")
    assert code == 2
    assert err.startswith("error:")


def test_crossover_constant_forms(capsys):
    for text in ("2.7", "27/10", "3"):
        code, out, _ = run(capsys, "p", "100", "20", "--crossover-constant", text)
        assert (code, out) == (0, f"{partita.p_parts(100, 20)}\n")


def test_crossover_constant_negative_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["p", "10", "3", "--crossover-constant", "-1"])
    assert exc.value.code == 2


def test_negative_index_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["p", "-4", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("method", ["auto", "alg2"])
def test_oracle_explain_names_the_oracle(capsys, method):
    # the enumeration computed the value, whatever route --algorithm names
    plan = partita.dispatch_plan(10, 3)
    args = ("p", "10", "3", "--oracle", "--explain", "--algorithm", method)
    code, out, _ = run(capsys, *args)
    assert (code, out) == (
        0,
        f"8\nchosen=oracle steps_alg1={plan.alg1} steps_alg2={plan.alg2}\n",
    )
    code, out, _ = run(capsys, *args, "--format", "csv")
    assert out.splitlines()[1] == f"10,3,8,oracle,{plan.alg1},{plan.alg2}"
    code, out, _ = run(capsys, *args, "--format", "json")
    params = json.loads(out)["params"]
    assert (params["algorithm"], params["chosen"]) == ("oracle", "oracle")
    assert (params["steps_alg1"], params["steps_alg2"]) == (plan.alg1, plan.alg2)


def test_oracle_recount(capsys):
    code, out, _ = run(capsys, "p", "10", "3", "--oracle")
    assert (code, out) == (0, "8\n")
    code, out, _ = run(capsys, "q", "10", "3", "--oracle")
    assert (code, out) == (0, "4\n")


def test_oracle_limit_exit_code(capsys):
    code, _, err = run(capsys, "p", "81", "2", "--oracle")
    assert code == 2
    assert "oracle limit" in err


def test_list_p_row_plain(capsys):
    code, out, _ = run(capsys, "list", "p-row", "7")
    assert (code, out) == (0, "1,3,4,3,2,1,1\n")


def test_list_p_row_csv(capsys):
    code, out, _ = run(capsys, "list", "p-row", "5", "--format", "csv")
    assert code == 0
    assert out == "index,value\n1,1\n2,2\n3,2\n4,1\n5,1\n"


def test_list_q_col_json_golden(capsys):
    code, out, _ = run(capsys, "list", "q-col", "9", "3", "--format", "json")
    assert code == 0
    assert out == (
        '{"kind":"q-col","params":{"n":9,"m":3,"start_index":6},'
        '"values":["1","1","2","3"]}\n'
    )


def test_list_p_col_empty_when_n_below_m(capsys):
    code, out, _ = run(capsys, "list", "p-col", "3", "7")
    assert (code, out) == (0, "\n")
    code, out, _ = run(capsys, "list", "p-col", "3", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == []
    assert payload["params"]["start_index"] == 7


def test_list_p_col_strategies(capsys):
    outputs = set()
    for strategy in ("auto", "direct", "conv"):
        code, out, _ = run(capsys, "list", "p-col", "60", "9", "--strategy", strategy)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_list_series(capsys):
    code, out, _ = run(capsys, "list", "p-series", "10")
    assert (code, out) == (0, "1,1,2,3,5,7,11,15,22,30,42\n")
    code, euler_out, _ = run(
        capsys, "list", "p-series", "10", "--series-algorithm", "euler"
    )
    assert (code, euler_out) == (0, out)
    code, qout, _ = run(capsys, "list", "q-series", "10")
    assert (code, qout) == (0, "1,1,1,2,2,3,4,5,6,8,10\n")
    code, qewell, _ = run(
        capsys, "list", "q-series", "10", "--series-algorithm", "ewell"
    )
    assert (code, qewell) == (0, qout)


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "row.csv"
    code, out, _ = run(
        capsys, "list", "p-row", "5", "--format", "csv", "--out", str(target)
    )
    assert (code, out) == (0, "")
    assert target.read_text() == "index,value\n1,1\n2,2\n3,2\n4,1\n5,1\n"


def test_out_failure_is_exit_2(capsys, tmp_path):
    code, _, err = run(
        capsys, "p", "5", "2", "--out", str(tmp_path / "missing" / "f.txt")
    )
    assert code == 2
    assert err.startswith("error:")


def test_bench_steps_only_csv(capsys):
    code, out, _ = run(
        capsys, "bench", "400", "--m-range", "10:60:10", "--steps-only",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,steps_alg1,steps_alg2,chosen"
    assert len(lines) == 7
    for line in lines[1:]:
        m, s1, s2, chosen = line.split(",")
        plan = partita.dispatch_plan(400, int(m))
        assert (int(s1), int(s2), chosen) == (plan.alg1, plan.alg2, plan.chosen)


def test_bench_timed_csv_has_time_columns(capsys):
    code, out, _ = run(
        capsys, "bench", "60", "--m-range", "5:10:5", "--repetitions", "1",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,steps_alg1,steps_alg2,time_alg1_ns,time_alg2_ns,chosen"
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert int(fields[3]) > 0 and int(fields[4]) > 0


def test_bench_json(capsys):
    code, out, _ = run(
        capsys, "bench", "100", "--m-range", "4:8:2", "--steps-only",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "bench"
    assert payload["params"]["n"] == 100
    assert [row["m"] for row in payload["rows"]] == [4, 6, 8]


def test_bench_plain_has_header(capsys):
    code, out, _ = run(capsys, "bench", "50", "--m-range", "2:4", "--steps-only")
    assert code == 0
    first = out.splitlines()[0].split()
    assert first == ["m", "steps_alg1", "steps_alg2", "chosen"]


def test_bench_default_range_covers_all_m(capsys):
    code, out, _ = run(capsys, "bench", "30", "--steps-only", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 31


def test_bench_range_clamps_to_n(capsys):
    code, out, _ = run(
        capsys, "bench", "12", "--m-range", "10:99", "--steps-only",
        "--format", "csv",
    )
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["10", "11", "12"]


@pytest.mark.parametrize("bad", ["5", "0:4", "9:3", "1:5:0", "a:b", "1:2:3:4"])
def test_bench_bad_m_range(capsys, bad):
    code, _, err = run(capsys, "bench", "40", "--m-range", bad, "--steps-only")
    assert code == 2
    assert err.startswith("error:")


def test_bench_fit_requires_timings(capsys):
    code, _, err = run(capsys, "bench", "40", "--fit-crossover", "--steps-only")
    assert code == 2
    assert "fit-crossover" in err


def test_bench_fit_output_shape(capsys):
    code, out, _ = run(
        capsys, "bench", "100", "--m-range", "1:40:5", "--repetitions", "1",
        "--fit-crossover",
    )
    assert code == 0
    assert re.fullmatch(
        r"(m=\d+ constant=\d+\.\d{4} |no crossover in range; )"
        r"analytic=\d+\.\d{2} practical=\d+\n",
        out,
    )


def test_bench_fit_json(capsys):
    code, out, _ = run(
        capsys, "bench", "64", "--m-range", "1:20:4", "--repetitions", "1",
        "--fit-crossover", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "bench-fit"
    assert ("m" in payload) and ("constant" in payload)
    assert payload["analytic"] == round(float(partita.analytic_crossover(64)), 2)
    assert payload["practical"] == partita.practical_crossover(64)


@pytest.mark.parametrize(
    "fmt,alg1,expected",
    [
        ("csv", [1, 2, 3, 9, 9, 9], "m,constant,analytic,practical\n4,0.6325,4.69,17\n"),
        ("csv", [1] * 6, "m,constant,analytic,practical\n,,4.69,17\n"),
        ("plain", [1] * 6, "no crossover in range; analytic=4.69 practical=17\n"),
    ],
    ids=["csv-crossing", "csv-none", "plain-none"],
)
def test_bench_fit_golden(capsys, monkeypatch, fmt, alg1, expected):
    # _bench_rows times alg1 then alg2 for each m; alg2 always takes 5
    times = iter(t for pair in zip(alg1, [5] * 6) for t in pair)
    monkeypatch.setattr(cli, "_median_time_ns", lambda fn, repetitions: next(times))
    code, out, _ = run(
        capsys, "bench", "40", "--m-range", "1:6", "--fit-crossover", "--format", fmt
    )
    assert (code, out) == (0, expected)


@pytest.mark.parametrize(
    "argv,message",
    [
        (("p", "x", "3"), "argument n: not an integer: 'x'"),
        (("list", "p-row", "0"), "argument n: must be at least 1"),
        (
            ("p", "5", "3", "--crossover-constant", "abc"),
            "argument --crossover-constant: not a number: 'abc'",
        ),
    ],
    ids=["p-x-3", "list-p-row-0", "crossover-constant-abc"],
)
def test_bad_argument_values_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def test_cache_save_golden(capsys, tmp_path):
    path = tmp_path / "p.cache"
    code, out, _ = run(capsys, "cache", "save", str(path), "-n", "4")
    assert code == 0
    assert "5 values" in out
    assert path.read_bytes() == b"PCACHE v1 5\n1\n1\n2\n3\n5\n"


def test_cache_save_q_golden(capsys, tmp_path):
    path = tmp_path / "q.cache"
    code, _, _ = run(capsys, "cache", "save", str(path), "-n", "4", "--kind", "q")
    assert code == 0
    assert path.read_bytes() == b"QCACHE v1 5\n1\n1\n1\n2\n2\n"


def test_cache_save_twice_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.cache", tmp_path / "b.cache"
    assert run(capsys, "cache", "save", str(a), "-n", "64")[0] == 0
    assert run(capsys, "cache", "save", str(b), "-n", "64")[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_cache_load_and_info(capsys, tmp_path):
    path = tmp_path / "p.cache"
    run(capsys, "cache", "save", str(path), "-n", "30")
    code, out, _ = run(capsys, "cache", "load", str(path))
    assert code == 0
    assert "ok" in out and "kind=p" in out and "31 values" in out
    code, out, _ = run(capsys, "cache", "info", str(path))
    assert code == 0
    s = partita.load_series(path)
    assert "length: 31" in out
    assert f"sha256: {partita.series_checksum(s)}" in out


def test_cache_info_empty(capsys, tmp_path):
    path = tmp_path / "empty.cache"
    path.write_bytes(b"PCACHE v1 0\n")
    code, out, _ = run(capsys, "cache", "info", str(path))
    assert code == 0
    assert "length: 0" in out


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize(
    "payload",
    [
        b"garbage\n",
        b"PCACHE v1 3\n1\n2\n",
        b"PCACHE v1 1\n9\n",
        b"PCACHE v1 2\n1\nx\n",
        pytest.param(
            b"PCACHE v1 2\n1\n" + b"1" * (DIGIT_LIMIT + 1) + b"\n",
            marks=pytest.mark.skipif(not DIGIT_LIMIT, reason="no int digit limit"),
            id="over-digit-limit",
        ),
        pytest.param(
            b"PCACHE v1 " + b"1" * (DIGIT_LIMIT + 1) + b"\n1\n",
            marks=pytest.mark.skipif(not DIGIT_LIMIT, reason="no int digit limit"),
            id="header-over-digit-limit",
        ),
    ],
)
def test_corrupt_cache_exit_3(capsys, tmp_path, payload):
    path = tmp_path / "bad.cache"
    path.write_bytes(payload)
    for argv in (
        ["cache", "load", str(path)],
        ["cache", "info", str(path)],
        ["p", "30", "12", "--cache", str(path)],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: line")


def test_missing_cache_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "cache", "load", str(tmp_path / "nope.cache"))
    assert code == 2
    assert err.startswith("error:")


def test_cache_io_error_names_the_path_as_typed(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "cache", "load", "./nope.cache")
    assert (code, err) == (2, "error: [Errno 2] No such file or directory: './nope.cache'\n")
    run(capsys, "cache", "save", "p.cache", "-n", "5")
    code, _, err = run(capsys, "cache", "info", "p.cache/")
    assert (code, err) == (2, "error: [Errno 20] Not a directory: 'p.cache/'\n")


def test_scalar_rejects_q_cache(capsys, tmp_path):
    path = tmp_path / "q.cache"
    run(capsys, "cache", "save", str(path), "-n", "10", "--kind", "q")
    code, _, err = run(capsys, "p", "30", "12", "--cache", str(path))
    assert code == 2
    assert "P cache" in err


@pytest.mark.parametrize("kind", ["p", "q"])
def test_scalar_empty_cache_path_is_an_io_error(capsys, kind):
    assert run(capsys, kind, "10", "3", "--cache", "") == (
        2, "", "error: [Errno 2] No such file or directory: ''\n"
    )


@pytest.mark.parametrize(
    "argv,message",
    [
        (["p", "10", "30", "--algorithm", "closed"], "closed form requires m <= 6"),
        (["p", str(2**62 + 1), "8"], "n exceeds the index ceiling 2**62"),
        (["q", str(2**62 + 1), "8"], "n exceeds the index ceiling 2**62"),
        (["p", "100", "3", "--oracle"], "n=100 exceeds the oracle limit of 80"),
        (["q", "100", "3", "--oracle"], "n=100 exceeds the oracle limit of 80"),
    ],
    ids=["closed-m-30", "p-past-ceiling", "q-past-ceiling", "p-oracle", "q-oracle"],
)
def test_scalar_arguments_are_checked_before_the_cache(capsys, tmp_path, argv, message):
    bad = tmp_path / "bad.cache"
    bad.write_bytes(b"garbage\n")
    assert run(capsys, *argv, "--cache", str(bad)) == (2, "", f"error: {message}\n")


def test_closed_form_past_the_ceiling_names_the_ceiling(capsys):
    # as p_parts does: the index is checked before the forced route
    with pytest.raises(ValueError, match="index ceiling"):
        partita.p_parts(2**62 + 1, 8, method="closed")
    argv = ("p", str(2**62 + 1), "8", "--algorithm", "closed")
    assert run(capsys, *argv) == (2, "", "error: n exceeds the index ceiling 2**62\n")


def test_scalar_uses_cache_file(capsys, tmp_path):
    path = tmp_path / "p.cache"
    run(capsys, "cache", "save", str(path), "-n", "40")
    code, out, _ = run(
        capsys, "p", "50", "30", "--cache", str(path), "--algorithm", "alg2"
    )
    assert (code, out) == (0, f"{partita.p_parts(50, 30)}\n")


@pytest.mark.parametrize(
    "text",
    [
        b"12x",
        b"",
        pytest.param(
            b"1" * (DIGIT_LIMIT + 1),
            marks=pytest.mark.skipif(not DIGIT_LIMIT, reason="no int digit limit"),
            id="over-digit-limit",
        ),
    ],
)
@pytest.mark.parametrize("argv", [["p", "100", "60"], ["q", "100", "5"]])
def test_scalar_cache_bad_line_beyond_the_read_prefix(capsys, tmp_path, text, argv):
    # p 100 60 reads P(0..40), lines 2..42, and q 100 5 takes the closed
    # form, which reads none; the file is still checked in full, so line
    # 150 is named
    path = tmp_path / "p.cache"
    run(capsys, "cache", "save", str(path), "-n", "200")
    lines = path.read_bytes().split(b"\n")
    lines[149] = text
    path.write_bytes(b"\n".join(lines))
    if text.isdigit():
        message = f"{len(text)}-digit value exceeds the interpreter's limit"
    else:
        message = f"not a decimal value: {text.decode()!r}"
    assert run(capsys, *argv, "--cache", str(path)) == (3, "", f"error: line 150: {message}\n")


def test_cached_counts_match_uncached_on_both_sides_of_the_file(capsys, tmp_path):
    # a file of P(0..15): every --algorithm, p and q, with the plan's top
    # below, at and beyond the last value, trivial and staircase cases
    # included; a count that read an unconverted line would raise
    last = 15
    path = tmp_path / "p.cache"
    run(capsys, "cache", "save", str(path), "-n", str(last))
    points = [("p", n, m) for n in range(2 * last + 8) for m in range(n + 2)]
    for m in range(last + 4):
        stair = m * (m - 1) // 2
        points += [("q", stair + shifted, m) for shifted in range(2 * last + 8)]
        points += [("q", stair - 1, m)] if stair else []
    seen = set()
    for kind, n, m in points:
        shifted = core._staircase(n, m) if kind == "q" else n
        for method in core._METHODS:
            argv = (kind, str(n), str(m), "--algorithm", method)
            expected = run(capsys, *argv)
            assert run(capsys, *argv, "--cache", str(path)) == expected, argv
            if expected[0] == 0:
                library = partita.q_parts if kind == "q" else partita.p_parts
                assert expected[1] == f"{library(n, m, method=method)}\n", argv
                route, top, _ = core._plan(shifted, m, core.DEFAULT_CROSSOVER, method)
                side = "trivial" if m == 0 or shifted <= m else (top > last) - (top < last)
                seen.add((kind, route, side))
    for kind in ("p", "q"):
        for route in (core.ALG2, core.FAST_PATH):
            assert {(kind, route, side) for side in (-1, 0, 1)} <= seen
        assert (kind, core.FAST_PATH, "trivial") in seen


def test_first_value_is_checked_when_the_route_reads_one_other(capsys, tmp_path):
    # p 5000 2600 takes the fast path, which converts P(2400) alone
    path = tmp_path / "p.cache"
    run(capsys, "cache", "save", str(path), "-n", "3000")
    lines = path.read_bytes().split(b"\n")
    lines[1] = b"2"
    path.write_bytes(b"\n".join(lines))
    assert run(capsys, "p", "5000", "2600", "--cache", str(path)) == (
        3, "", "error: line 2: first value must be 1\n"
    )


@pytest.mark.parametrize(
    "variant",
    [
        lambda raw: raw,
        lambda raw: raw.replace(b"\n1\n", b"\n01\n", 1),
        lambda raw: raw.replace(b"\n", b"\r\n"),
        lambda raw: raw[:-1],
        lambda raw: raw.replace(b"\n", b"\r").replace(b"\r5\r", b"\r05\r", 1),
        lambda raw: raw.replace(b"\n", b"\x0b"),
    ],
    ids=["canonical", "leading-zero", "crlf", "no-final-newline", "lone-cr-leading-zero", "vt"],
)
def test_cache_info_digest_is_the_canonical_forms(capsys, tmp_path, monkeypatch, variant):
    canonical = tmp_path / "p.cache"
    run(capsys, "cache", "save", str(canonical), "-n", "300")
    digest = partita.series_checksum(partita.load_series(canonical))
    assert digest == hashlib.sha256(canonical.read_bytes()).hexdigest()
    path = tmp_path / "variant.cache"
    path.write_bytes(variant(canonical.read_bytes()))
    serialized = []
    serialize = partita.series.serialize_series
    monkeypatch.setattr(
        partita.series, "serialize_series", lambda s: serialized.append(s) or serialize(s)
    )
    assert run(capsys, "cache", "info", str(path)) == (
        0, f"kind: p\nlength: 301\nsha256: {digest}\n", ""
    )
    # every file is hashed in save_series' layout, never re-serialized
    assert serialized == []


def test_whole_file_reads_hold_no_unconverted_value(capsys, tmp_path, monkeypatch):
    # only a p/q count gets a series with holes; each of these converts
    # every value it returns
    path = tmp_path / "p.cache"
    run(capsys, "cache", "save", str(path), "-n", "60")
    variants = {"canonical": path.read_bytes()}
    variants["crlf"] = variants["canonical"].replace(b"\n", b"\r\n")
    variants["leading-zero"] = variants["canonical"].replace(b"\n2\n", b"\n02\n", 1)
    returned = []
    for name in ("_read_cache", "_cache_checksum"):

        def recording(*args, _fn=getattr(partita.series, name)):
            result = _fn(*args)
            returned.append(result[0])
            return result

        monkeypatch.setattr(partita.series, name, recording)
    for raw in variants.values():
        path.write_bytes(raw)
        assert run(capsys, "cache", "load", str(path))[0] == 0
        assert run(capsys, "cache", "info", str(path))[0] == 0
        partita.load_series(path)
        for top in (0, 1, 30, 59, 60, 61, 200):
            partita.series._read_cache(path, top)
    assert len(returned) == 3 * 10  # every read above passed the recorder
    for s in returned:
        assert None not in s.values


def test_scalar_crlf_cache_counts_as_the_canonical_one(capsys, tmp_path):
    path, crlf = tmp_path / "p.cache", tmp_path / "crlf.cache"
    run(capsys, "cache", "save", str(path), "-n", "200")
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    for argv in (["p", "150", "80"], ["p", "200", "70"], ["q", "120", "6"]):
        expected = run(capsys, *argv)
        assert run(capsys, *argv, "--cache", str(path)) == expected
        assert run(capsys, *argv, "--cache", str(crlf)) == expected


@pytest.mark.parametrize(
    "payload,kind,count",
    [
        (b"PCACHE v1 5\n1\n1\n2\n3\n5\n", "p", 5),
        (b"QCACHE v1 5\n1\n1\n1\n2\n2\n", "q", 5),
        (b"PCACHE v1 0\n", "p", 0),
        (b"QCACHE v1 0\n", "q", 0),
        (b"PCACHE v1 3\r\n1\r\n1\r\n02\r\n", "p", 3),
    ],
)
def test_cache_load_golden(capsys, tmp_path, payload, kind, count):
    path = tmp_path / "c.cache"
    path.write_bytes(payload)
    assert run(capsys, "cache", "load", str(path)) == (
        0, f"{path}: ok, kind={kind}, {count} values\n", ""
    )


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_reused_parser_leaks_nothing_between_calls(capsys, monkeypatch, tmp_path):
    bad = tmp_path / "bad.cache"
    bad.write_bytes(b"PCACHE v1 2\n1\n+5\n")
    sequence = (
        ["p", "7"],
        ["--help"],
        ["p", "7", "4", "--format", "json"],
        ["p", "7", "4"],
        ["q", "20", "4", "--explain"],
        ["list", "p-row", "5", "--format", "csv"],
        ["cache", "load", str(bad)],
    )

    def outcomes():
        seen = []
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            seen.append((code, *capsys.readouterr()))
        return seen

    reused = outcomes()
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser per call
    assert reused == outcomes()
    assert [code for code, _, _ in reused] == [2, 0, 0, 0, 0, 0, 3]
    assert reused[3][1] == "3\n"
    assert cli.build_parser() is not cli.build_parser()


@pytest.mark.parametrize(
    "repetitions,expected", [(1, 40), (3, 30), (4, 20)]
)
def test_median_time_is_the_low_median(monkeypatch, repetitions, expected):
    # each timed call reads the clock twice; these pairs take 40, 20, 30
    # and 10 ns, so four runs have middle values 20 and 30 and report 20
    clock = iter([0, 40, 100, 120, 200, 230, 300, 310])
    monkeypatch.setattr(cli, "perf_counter_ns", lambda: next(clock))
    calls = []
    assert cli._median_time_ns(lambda: calls.append(1), repetitions) == expected
    assert len(calls) == repetitions


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "partita", "p", "7", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "3\n"


def test_console_entry_point_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "partita", "p", "7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
def test_out_of_memory_exits_2():
    # alg1's table for this request needs about 8 GB; under a 1 GiB
    # address-space limit the allocation fails at once
    proc = subprocess.run(
        [sys.executable, "-m", "partita", "p", "1000000000", "1000"],
        capture_output=True,
        text=True,
        preexec_fn=_limit_address_space,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


# a child process, so that a constant that hangs fails on the timeout
# instead of stalling the suite
_LIBRARY_CONSTANT = """
import sys
from decimal import Decimal
from partita import p_parts
try:
    p_parts(10, 5, constant=Decimal(sys.argv[1]))
except ValueError as exc:
    print(exc)
"""


@pytest.mark.parametrize("text", ["1e1000000000", "1e-1000000000"])
def test_crossover_constant_exponent_is_bounded(text):
    cli_proc = subprocess.run(
        [sys.executable, "-m", "partita", "p", "10", "5", "--crossover-constant", text],
        capture_output=True, text=True, timeout=30,
    )
    assert cli_proc.returncode == 2
    assert "exceeds the limit 4300" in cli_proc.stderr
    lib_proc = subprocess.run(
        [sys.executable, "-c", _LIBRARY_CONSTANT, text],
        capture_output=True, text=True, timeout=30,
    )
    assert lib_proc.returncode == 0
    assert "exceeds the limit 4300" in lib_proc.stdout


def test_crossover_constant_exponent_limit_is_inclusive(capsys):
    assert run(capsys, "p", "10", "5", "--crossover-constant", "1e4300")[0] == 0
    # an exponent of more digits than int() converts gets the same refusal
    long_exponents = ["1e" + "9" * 5000, "1e-" + "9" * 5000]
    for text in ["1e-4301", *long_exponents]:
        with pytest.raises(SystemExit) as exc:
            main(["p", "10", "5", "--crossover-constant", text])
        assert exc.value.code == 2
        assert "exceeds the limit 4300" in capsys.readouterr().err
    for text in ["1E+4301", *long_exponents]:
        with pytest.raises(ValueError, match="exceeds the limit 4300"):
            partita.p_parts(10, 5, constant=text)


@pytest.mark.parametrize(
    "text,written",
    [("1e4300", "1" + "0" * 4300), ("1e-4300", "1/1" + "0" * 4300)],
    ids=["1e4300", "1e-4300"],
)
def test_bench_json_writes_any_accepted_constant(capsys, text, written):
    # numerator and denominator past the int-string limit are written in full
    code, out, _ = run(
        capsys, "bench", "60", "--steps-only", "--format", "json",
        "--crossover-constant", text,
    )
    assert code == 0
    assert json.loads(out)["params"]["crossover_constant"] == written


@pytest.mark.parametrize(
    "text,exact,route",
    [("2.7", Fraction(27, 10), core.ALG2), ("27/10", Fraction(27, 10), core.ALG2),
     ("1e30", Fraction(10**30), core.ALG1)],
)
def test_crossover_constant_spellings_route_as_their_fraction(capsys, text, exact, route):
    # (400, 60) is alg2 at 2.7 and alg1 at 10^30, in the CLI and the library
    code, out, _ = run(
        capsys, "p", "400", "60", "--crossover-constant", text, "--explain", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["params"]["chosen"] == route
    for constant in (text, exact, float(exact)):
        assert partita.dispatch_plan(400, 60, constant).chosen == route
