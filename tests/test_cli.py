import json

import pytest

from cobweb.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_expecting_exit(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


# -- table ---------------------------------------------------------------------


def test_table_csv(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--seq", "fibonacci", "--n", "4", "--fn", "mobius", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,n,value"
    assert "0,3,0" in lines


def test_table_json(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--seq", "fibonacci", "--n", "3", "--fn", "zeta2", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["0,3"] == 5
    assert obj["0,0"] == 1


def test_table_plain_and_powers(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--seq", "fibonacci", "--n", "3", "--fn", "eta_pow", "--power", "2"
    )
    assert code == 0
    assert "eta_pow(2) table" in out
    # a generic power of a plain name goes through repeated convolution
    code, out2, _ = run_cli(
        capsys, "table", "--seq", "fibonacci", "--n", "3", "--fn", "zeta",
        "--power", "2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out2)["0,3"] == 5


def test_table_determinism(capsys):
    args = ("table", "--seq", "custom:1,3,1,4,2", "--n", "4", "--fn", "mobius", "--format", "csv")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


# -- chains ---------------------------------------------------------------------


def test_chains_counts(capsys):
    code, out, _ = run_cli(
        capsys, "chains", "--seq", "fibonacci", "--n", "3", "--from", "0", "--to", "3"
    )
    assert code == 0
    assert "all chains: 6" in out
    assert "maximal chains: 2" in out
    assert "  2: 3" in out


def test_chains_oracle_and_json(capsys):
    code, out, _ = run_cli(
        capsys, "chains", "--seq", "fibonacci", "--n", "3", "--from", "0", "--to", "3",
        "--oracle", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["all"] == 6
    assert obj["by_length"] == {"1": 1, "2": 3, "3": 2}
    assert obj["maximal"] == 2
    assert obj["oracle"] == "OK"


def test_chains_equal_ranks(capsys):
    code, out, _ = run_cli(
        capsys, "chains", "--seq", "fibonacci", "--n", "3", "--from", "2", "--to", "2",
        "--oracle", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["all"] == 1  # the empty chain
    assert obj["by_length"] == {}


def test_chains_determinism(capsys):
    args = ("chains", "--seq", "naturals", "--n", "5", "--from", "1", "--to", "4")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


# -- mobius and export-dot ---------------------------------------------------------


def test_mobius_command(capsys):
    code, out, _ = run_cli(capsys, "mobius", "--seq", "constant:2", "--n", "4", "--format", "csv")
    assert code == 0
    assert "0,4,1" in out.split()[-1] or "0,4,1" in out


def test_export_dot_stdout_and_file(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "export-dot", "--seq", "custom:1,2", "--n", "1")
    assert code == 0
    assert '"1,0" -> "2,1";' in out
    target = tmp_path / "poset.dot"
    code, out, _ = run_cli(
        capsys, "export-dot", "--seq", "custom:1,2", "--n", "1", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert '"1,0" -> "2,1";' in target.read_text()


# -- verify --------------------------------------------------------------------------


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seq", "constant:2", "--n", "5")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 11


# -- argument errors -------------------------------------------------------------------


def test_unknown_fn_exits_2(capsys):
    code, _, err = run_cli_expecting_exit(
        capsys, "table", "--seq", "fibonacci", "--n", "3", "--fn", "nu"
    )
    assert code == 2
    assert "invalid choice" in err


def test_bad_seq_exits_2(capsys):
    code, _, err = run_cli_expecting_exit(capsys, "mobius", "--seq", "wat", "--n", "3")
    assert code == 2
    assert "sequence spec" in err


def test_missing_power_exits_2(capsys):
    code, _, err = run_cli_expecting_exit(
        capsys, "table", "--seq", "fibonacci", "--n", "3", "--fn", "chi_pow"
    )
    assert code == 2
    assert "--power" in err


def test_n_cap_and_override(capsys):
    code, _, err = run_cli_expecting_exit(
        capsys, "table", "--seq", "constant:1", "--n", "13", "--fn", "zeta"
    )
    assert code == 2
    assert "allow-large" in err
    code, out, _ = run_cli(
        capsys, "table", "--seq", "constant:1", "--n", "13", "--fn", "zeta",
        "--allow-large", "--format", "csv",
    )
    assert code == 0
    assert "0,13,1" in out


def test_bad_rank_pair_exits_2(capsys):
    code, _, err = run_cli_expecting_exit(
        capsys, "chains", "--seq", "fibonacci", "--n", "3", "--from", "3", "--to", "1"
    )
    assert code == 2
    assert "--from" in err


def test_out_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "table.csv"
    code, out, err = run_cli_expecting_exit(
        capsys, "mobius", "--seq", "fibonacci", "--n", "3", "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert "cannot write --out" in err
    assert "Traceback" not in err


def test_out_directory_path_exits_2(tmp_path, capsys):
    code, out, err = run_cli_expecting_exit(
        capsys, "export-dot", "--seq", "fibonacci", "--n", "3", "--out", str(tmp_path)
    )
    assert code == 2
    assert out == ""
    assert "cannot write --out" in err
