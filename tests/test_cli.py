import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nilorb.cli import build_parser, canonical_json, main


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_roots(capsys):
    code, out, _ = run(capsys, ["roots", "--type", "A2"])
    assert code == 0
    assert "positive roots: 3" in out
    assert "marks" in out


SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "nilorb", "roots", "--type", "G2"],
        capture_output=True, text=True, env=ENV, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "positive roots: 6" in proc.stdout


def test_closed_pipe_is_a_quiet_nonzero_exit():
    # the reader has gone before the first write, as with `| head` on a
    # long dump: no traceback, no "Exception ignored" line, nonzero exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nilorb", "roots", "--type", "E8"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=ENV, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ""


def test_invalid_type(capsys):
    code, _, err = run(capsys, ["roots", "--type", "B1"])
    assert code == 1
    assert "rank" in err


@pytest.mark.parametrize("text", ["Gx", "G2.5"])
def test_unparsable_type_is_an_error_line(capsys, text):
    code, out, err = run(capsys, ["roots", "--type", text])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--type" in err and "'G2'" in err
    assert "invalid literal" not in err


def test_cosets_b2(capsys):
    code, out, _ = run(capsys, ["cosets", "--type", "B2", "--subsystem-from-extended-minus", "2"])
    assert code == 0
    assert out.splitlines()[0] == "2"


def test_cosets_full_group(capsys):
    code, out, _ = run(capsys, ["cosets", "--type", "A2", "--subsystem-from-extended-minus", "0", "--words"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1"
    assert lines[1] == "e"


def test_cosets_words_by_length_then_word(capsys):
    code, out, _ = run(capsys, ["cosets", "--type", "B3", "--subsystem-from-extended-minus", "2", "--words"])
    assert code == 0
    assert out.split() == ["6", "e", "s2", "s2s1", "s2s3", "s2s1s3", "s2s3s2"]


def test_cosets_bad_node(capsys):
    code, _, err = run(capsys, ["cosets", "--type", "A2", "--subsystem-from-extended-minus", "9"])
    assert code == 1 and "range" in err


def test_pisystems(capsys):
    code, out, _ = run(capsys, ["pisystems", "--type", "A2"])
    assert code == 0
    assert out.splitlines()[0] == "2 classes"


def test_wdd(capsys):
    code, out, _ = run(capsys, ["wdd", "--type", "A2"])
    assert code == 0
    assert out.splitlines()[0] == "3 nilpotent orbits"


def test_orbits_text(capsys):
    code, out, _ = run(capsys, ["orbits", "--type", "A1", "--kac", "1,1"])
    assert code == 0
    assert out.count("h=(") == 3
    assert "2 nonzero orbits" in out
    assert '"component_dims":[1,2]' in out  # grading echo


def test_orbits_by_nregular_order(capsys):
    code, out, _ = run(capsys, ["orbits", "--type", "G2", "--nregular-order", "2"])
    assert code == 0
    assert "kac=0,0,1" in out
    assert "5 nonzero orbits" in out
    assert "dim 6, rank 2" in out


def test_orbits_json_schema_and_roundtrip(capsys):
    code, out, _ = run(capsys, ["orbits", "--type", "A1", "--kac", "1,1", "--output", "json"])
    assert code == 0
    line = out.strip()
    doc = json.loads(line)
    assert set(doc) == {"algebra", "kac", "m", "records", "summary", "seed", "schema"}
    assert doc["schema"] == 1
    assert doc["algebra"] == {"type": "A", "rank": 1}
    assert doc["m"] == 2 and doc["kac"] == [1, 1]
    assert len(doc["records"]) == 3
    for r in doc["records"]:
        assert set(r) == {"h", "e", "f", "dim", "wdd"}
    assert doc["summary"]["orbit_count"] == 2
    # byte-identical round trip
    assert canonical_json(doc) == line


def test_identical_config_identical_bytes(capsys):
    _, out1, _ = run(capsys, ["orbits", "--type", "G2", "--kac", "0,0,1", "--output", "json", "--seed", "5"])
    _, out2, _ = run(capsys, ["orbits", "--type", "G2", "--kac", "0,0,1", "--output", "json", "--seed", "5"])
    assert out1 == out2


def test_orbits_invalid_kac(capsys):
    code, _, err = run(capsys, ["orbits", "--type", "A1", "--kac", "0,0"])
    assert code == 1 and "order 0" in err
    code, _, err = run(capsys, ["orbits", "--type", "A1", "--kac", "1,1,1"])
    assert code == 1 and "labels" in err


def test_orbits_requires_exactly_one_source():
    with pytest.raises(SystemExit) as exc:
        main(["orbits", "--type", "A1", "--kac", "1,1", "--nregular-order", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["orbits", "--type", "A1"])
    assert exc.value.code == 2


def test_outer_request_rejected(capsys):
    code, _, err = run(capsys, ["orbits", "--type", "A1", "--kac", "1,1", "--outer"])
    assert code == 1
    assert "outer" in err


def test_nregular_table(capsys):
    code, out, _ = run(capsys, ["nregular", "--type", "G2", "--orders", "2..3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split()[2] == "5"
    assert lines[2].split()[3] == "2*"  # not very N-regular: starred


DATA = Path(__file__).resolve().parent / "data"


def test_e7_nregular_table_bytes(capsys):
    # the whole E7 N-regular table by the carrier walk, byte for byte; the
    # README says which rows are published values and which are regression
    # pins
    argv = ["nregular", "--type", "E7", "--orders", "2..18", "--method", "2"]
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert out == (DATA / "nregular_E7_orders_2-18.txt").read_text()


def test_method_1_past_the_coset_index_cap_is_an_error_line(capsys):
    # the E7 toral grading: W_l is trivial, so the coset index is |W(E7)|
    argv = ["orbits", "--type", "E7", "--kac", "1,1,1,1,1,1,1,1", "--method", "1"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == (
        "error: ThetaGrading(E7, m=18) with simple-root degrees 1,1,1,1,1,1,1: coset index "
        "2903040 is past 500000, the largest that method 1 sweeps; use method 2 or auto\n"
    )


@pytest.mark.parametrize(
    "argv,message",
    [
        (["nregular", "--type", "G2", "--orders", "x"], "cannot parse"),
        (["nregular", "--type", "G2", "--orders", "5..2"], "empty"),
        (["orbits", "--type", "G2", "--nregular-order", "0"], ">= 1"),
    ],
)
def test_bad_order_is_an_error_line(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and message in err


def test_retry_budget_is_an_error_line(capsys, monkeypatch):
    import nilorb.characteristics as characteristics_mod

    # one try at coefficients up to 4, then the budget is spent
    monkeypatch.setattr(characteristics_mod, "OMEGA_CAP", 4)
    code, out, err = run(capsys, ["orbits", "--type", "G2", "--kac", "1,0,1"])
    assert code == 3
    assert out == ""
    # m=1 when the ambient stage fails, m=3 when its result is already cached
    assert err.startswith("error: ThetaGrading(G2, m=") and "h = " in err


def test_omega_cap_option_is_gone():
    with pytest.raises(SystemExit) as exc:
        main(["orbits", "--type", "G2", "--kac", "1,0,1", "--omega-cap", "4"])
    assert exc.value.code == 2


def test_unparsable_kac_is_an_error_line(capsys):
    code, out, err = run(capsys, ["orbits", "--type", "G2", "--kac", "0,0,x"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--kac" in err and "comma-separated integers" in err


A16_KAC = ",".join(["1", "1"] + ["0"] * 15)


@pytest.mark.parametrize(
    "argv,type_name,roots",
    [
        (["cosets", "--type", "A16", "--subsystem-from-extended-minus", "0"], "A16", 272),
        (["pisystems", "--type", "B12"], "B12", 288),
        (["orbits", "--type", "A16", "--kac", A16_KAC, "--method", "1"], "A16", 272),
        (["orbits", "--type", "A16", "--kac", A16_KAC, "--method", "2"], "A16", 272),
        # the table header waits for the first survey
        (["nregular", "--type", "A16", "--orders", "2"], "A16", 272),
        (["wdd", "--type", "A16"], "A16", 272),
    ],
)
def test_more_than_256_roots_is_an_error_line(capsys, argv, type_name, roots):
    # every command must fail before the 3^16-vector ambient loop
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {type_name} has {roots} roots; Weyl group permutations support at most 256 roots\n"


def test_orbits_of_a_grading_of_order_above_255(capsys):
    # m = 303: the degrees of the roots do not fit in a byte
    code, out, err = run(capsys, ["orbits", "--type", "G2", "--kac", "300,1,0", "--method", "1"])
    assert code == 0 and err == ""
    dims = ",".join(map(str, [4, 2, 1, 2] + [0] * 296 + [2, 1, 2]))
    assert out == (
        "algebra G2  kac=300,1,0  seed=0\n"
        f'grading {{"component_dims":[{dims}],"m":303,"phi0_type":"A1"}}\n'
        "h=(0,0)  dim=0  wdd=00  e=0\n"
        "h=(1,3)  dim=2  wdd=10  e=1*x[1,1]\n"
        "1 nonzero orbits, 1 component(s), dim 2, rank 0\n"
    )


def cli_options():
    """(subcommand, option) for every option of build_parser() that --help
    lists, --help itself left out."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, p in sub.choices.items():
        for action in p._actions:
            if action.help != argparse.SUPPRESS and not isinstance(action, argparse._HelpAction):
                yield from ((name, opt) for opt in action.option_strings)


def test_readme_documents_every_cli_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    options = list(cli_options())
    missing = [f"{name} {opt}" for name, opt in options if not re.search(rf"{opt}(?![\w-])", readme)]
    assert missing == []
    # and its Command line section names no option the parser lacks
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    unknown = set(re.findall(r"--[a-z][a-z-]*", section)) - {opt for _, opt in options}
    assert sorted(unknown) == []
