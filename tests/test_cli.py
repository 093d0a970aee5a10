from __future__ import annotations

from pathlib import Path

import pytest

from steinerkit import cli
from steinerkit.cli import main
from steinerkit.design import read_design, verify_2design
from steinerkit.errors import AxiomViolation
from steinerkit.permgrp import PermGroup, Permutation, group_to_text


def run(capsys, *argv) -> tuple[int, dict[str, str]]:
    code = main(list(argv))
    out = capsys.readouterr().out
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs.setdefault(key, value)
    return code, pairs


def write_group(path: Path, *perms: Permutation) -> str:
    degree = perms[0].degree
    path.write_text(group_to_text(PermGroup(degree, list(perms))))
    return str(path)


def test_search_base_block(tmp_path, capsys):
    out = tmp_path / "e19.design"
    code, rep = run(capsys, "search-base-block", "--p", "19", "--k", "3",
                    "--out", str(out))
    assert code == 0
    assert rep["base_block"] == "0,1,4"
    assert rep["status"] == "ok"
    d = read_design(out)
    assert d.b == 57 and verify_2design(d).ok


def test_search_base_block_honest_failure(capsys):
    code, rep = run(capsys, "search-base-block", "--p", "13", "--k", "3")
    assert code == 1
    assert rep["status"] == "fail"
    assert "error" in rep


def test_params_odd(capsys):
    code, rep = run(capsys, "params", "--search", "odd", "--k", "3", "--h", "3")
    assert code == 0
    assert rep["p"] == "19" and rep["t"] == "3"


def test_params_even(capsys):
    code, rep = run(capsys, "params", "--search", "even", "--k", "3", "--h", "4")
    assert code == 0
    assert rep["p"] == "19" and rep["n"] == "9"


def test_params_cyclic_assembly(capsys):
    code, rep = run(capsys, "params", "--search", "cyclic-assembly",
                    "--k", "3", "--h", "2")
    assert code == 0
    assert (rep["q"], rep["s"], rep["p"], rep["y"], rep["w"]) == ("7", "1", "379", "19", "21")


def test_construct_odd_trivial_group(tmp_path, capsys):
    gf = write_group(tmp_path / "triv.group", Permutation.identity(1))
    out = tmp_path / "lifted.design"
    code, rep = run(capsys, "construct-odd", "--k", "3", "--group-file", gf,
                    "--out", str(out))
    assert code == 0
    assert rep["p"] == "7"
    assert rep["check.pairs_once"].startswith("ok")
    assert rep["check.one_blocked"].startswith("ok")
    assert read_design(out).v == 7


def test_construct_odd_parity_failure(tmp_path, capsys):
    gf = write_group(tmp_path / "z2.group", Permutation.from_cycles(2, [(0, 1)]))
    code, rep = run(capsys, "construct-odd", "--k", "3", "--group-file", gf)
    assert code == 1
    assert "ParityViolation" in rep["error"]


def test_verify_subcommand(tmp_path, capsys):
    out = tmp_path / "fano.design"
    run(capsys, "search-base-block", "--p", "7", "--k", "3", "--out", str(out))
    code, rep = run(capsys, "verify", "--design", str(out))
    assert code == 0
    assert rep["check.pairs_once"].startswith("ok")


def test_verify_with_group_and_one_blocked(tmp_path, capsys):
    out = tmp_path / "fano.design"
    run(capsys, "search-base-block", "--p", "7", "--k", "3", "--out", str(out))
    gf = write_group(tmp_path / "z7.group",
                     Permutation(tuple((i + 1) % 7 for i in range(7))))
    code, rep = run(capsys, "verify", "--design", str(out), "--group-file", gf,
                    "--one-blocked")
    assert code == 0
    assert rep["check.one_blocked"].startswith("ok")


def test_km_search_subcommand(tmp_path, capsys):
    gf = write_group(tmp_path / "z13.group",
                     Permutation(tuple((i + 1) % 13 for i in range(13))))
    out = tmp_path / "sts13.design"
    code, rep = run(capsys, "km-search", "--v", "13", "--k", "3",
                    "--group-file", gf, "--out", str(out))
    assert code == 0
    assert read_design(out).b == 26


def test_km_search_unsat_reported(tmp_path, capsys):
    gf = write_group(tmp_path / "z9.group",
                     Permutation(tuple((i + 1) % 9 for i in range(9))))
    code, rep = run(capsys, "km-search", "--v", "9", "--k", "3", "--group-file", gf)
    assert code == 1
    assert "Unsat" in rep["error"]


def test_td_and_net_subcommands(tmp_path, capsys):
    code, rep = run(capsys, "td", "--k", "3", "--n", "6", "--mode", "cyclic",
                    "--out", str(tmp_path / "td.txt"))
    assert code == 0 and rep["rotator"] == "yes"
    code, rep = run(capsys, "td", "--k", "4", "--n", "9")
    assert code == 0
    code, rep = run(capsys, "net", "--mode", "semilinear", "--q", "4", "--m", "2",
                    "--k", "3")
    assert code == 0
    assert rep["g_order"] == "4" and rep["c_order"] == "2"
    assert rep["check.c_semiregular_points"].startswith("ok")


def test_plan_spectrum_subcommand(capsys):
    code, rep = run(capsys, "plan-spectrum", "--k", "3", "--w", "7",
                    "--x1", "7,9", "--width", "2000")
    assert code == 0
    assert rep["uncovered"] == "0"


def test_compose_rc_and_1blocked(tmp_path, capsys):
    fano = tmp_path / "fano.design"
    run(capsys, "search-base-block", "--p", "7", "--k", "3", "--out", str(fano))
    sts9 = tmp_path / "sts9.design"
    from steinerkit.basedesigns import steiner_triple_system
    from steinerkit.design import write_design
    d9 = steiner_triple_system(9)
    write_design(d9, sts9)
    block = ",".join(map(str, d9.block_tuples()[0]))
    out = tmp_path / "sts45.design"
    code, rep = run(capsys, "compose", "--mode", "rc", "--w", str(fano),
                    "--y", str(sts9), "--x-points", block, "--out", str(out))
    assert code == 0
    assert read_design(out).v == 45
    gf = write_group(tmp_path / "z7.group",
                     Permutation(tuple((i + 1) % 7 for i in range(7))))
    code, rep = run(capsys, "compose", "--mode", "1blocked", "--w", str(fano),
                    "--y", str(sts9), "--x-points", block, "--group-file", gf)
    assert code == 0
    assert rep["check.one_blocked"].startswith("ok")


def test_compose_cyclic_auto_pipeline(tmp_path, capsys):
    out = tmp_path / "sts379.design"
    code, rep = run(capsys, "compose", "--mode", "cyclic", "--k", "3", "--h", "2",
                    "--out", str(out), "--cache-dir", str(tmp_path / "cache"))
    assert code == 0
    assert rep["p"] == "379"
    assert rep["check.fixes_exactly_one_point"].startswith("ok")
    assert rep["check.semiregular_elsewhere"].startswith("ok")
    d = read_design(out)
    assert d.v == 379
    # rerun hits the ingredient cache and reproduces the identical file
    digest = rep["sha256"]
    out2 = tmp_path / "again.design"
    code, rep2 = run(capsys, "compose", "--mode", "cyclic", "--k", "3", "--h", "2",
                     "--out", str(out2), "--cache-dir", str(tmp_path / "cache"))
    assert code == 0 and rep2["sha256"] == digest


def test_km_search_orbit_blocks_flag(tmp_path, capsys):
    gf = write_group(tmp_path / "z3on21.group",
                     Permutation(tuple((i + 7) % 21 for i in range(21))))
    out = tmp_path / "sts21.design"
    code, rep = run(capsys, "km-search", "--v", "21", "--k", "3",
                    "--group-file", gf, "--orbit-blocks", "--out", str(out))
    assert code == 0
    assert rep["forced_orbit_blocks"] == "7"
    d = read_design(out)
    assert (0, 7, 14) in d.block_set()


def test_construct_aligned_end_to_end(tmp_path, capsys):
    gf = write_group(tmp_path / "z2.group", Permutation.from_cycles(2, [(0, 1)]))
    out = tmp_path / "sts361.design"
    code, rep = run(capsys, "construct-aligned", "--k", "3", "--group-file", gf,
                    "--out", str(out), "--cache-dir", str(tmp_path / "cache"))
    assert code == 0
    assert rep["p"] == "19"
    assert rep["check.pairs_once"].startswith("ok")
    assert rep["check.group_is_automorphisms"].startswith("ok")
    assert read_design(out).v == 361


def test_construct_aligned_gcd_precondition(tmp_path, capsys):
    z6 = Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)])
    gf = write_group(tmp_path / "z6.group", z6)
    code, rep = run(capsys, "construct-aligned", "--k", "3", "--group-file", gf)
    assert code == 1
    assert "error" in rep


def test_construct_aligned_k5_attempt(tmp_path, capsys):
    # k=5 with Z2: the prime search lands on the degenerate single-block
    # ingredient; the pipeline still assembles and verifies a 2-(25,5,1)
    gf = write_group(tmp_path / "z2.group", Permutation.from_cycles(2, [(0, 1)]))
    out = tmp_path / "d25.design"
    code, rep = run(capsys, "construct-aligned", "--k", "5", "--group-file", gf,
                    "--out", str(out))
    assert code == 0
    assert rep["p"] == "5"
    d = read_design(out)
    assert (d.v, d.k) == (25, 5)
    assert verify_2design(d).ok


def test_compose_cyclic_auto_gcd_violation(capsys):
    code, rep = run(capsys, "compose", "--mode", "cyclic", "--k", "4", "--h", "3")
    assert code == 1
    assert "GcdViolation" in rep["error"]


def test_compose_cyclic_with_explicit_files(tmp_path, capsys):
    from steinerkit.basedesigns import km_search, steiner_triple_system
    from steinerkit.design import write_design

    shift = Permutation(tuple((i + 7) % 21 for i in range(21)))
    w = km_search(21, 3, PermGroup(21, [shift]),
                  forced_blocks=[(i, i + 7, i + 14) for i in range(7)])
    wf, yf = tmp_path / "w.design", tmp_path / "y.design"
    write_design(w, wf)
    write_design(steiner_triple_system(19), yf)
    code, rep = run(capsys, "compose", "--mode", "cyclic", "--w", str(wf),
                    "--y", str(yf), "--cyclic",
                    ",".join(map(str, shift.images)))
    assert code == 0
    assert rep["v"] == "379"
    assert rep["check.fixes_exactly_one_point"].startswith("ok")


def test_deterministic_outputs(tmp_path, capsys):
    a, b = tmp_path / "a.design", tmp_path / "b.design"
    _, rep1 = run(capsys, "search-base-block", "--p", "19", "--k", "3", "--out", str(a))
    _, rep2 = run(capsys, "search-base-block", "--p", "19", "--k", "3", "--out", str(b))
    assert rep1["sha256"] == rep2["sha256"]


def _failing_verifier(_):
    raise AxiomViolation("forced failure")


def test_net_axioms_check_is_computed(monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_net", _failing_verifier)
    code, rep = run(capsys, "net", "--mode", "affine", "--n", "5", "--k", "3")
    assert rep["check.net_axioms"].startswith("FAIL")
    assert code == 1


def test_td_axioms_check_is_computed(monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_td", _failing_verifier)
    code, rep = run(capsys, "td", "--k", "3", "--n", "6", "--mode", "cyclic")
    assert rep["check.td_axioms"].startswith("FAIL")
    assert code == 1


def test_prime_check_is_computed(monkeypatch, capsys):
    monkeypatch.setattr(cli, "is_prime", lambda n: False)
    code, rep = run(capsys, "params", "--search", "cyclic-assembly", "--k", "3", "--h", "2")
    assert rep["check.prime"] == "FAIL"
    assert code == 1


# required arguments per subcommand; none of these reads --cache-dir, and
# plan-spectrum, verify and params write no file
REQUIRED = {
    "construct-odd": ["--k", "3", "--group-file", "g"],
    "search-base-block": ["--p", "7", "--k", "3"],
    "km-search": ["--v", "7", "--k", "3", "--group-file", "g"],
    "plan-spectrum": ["--k", "3", "--w", "7", "--x1", "7"],
    "verify": ["--design", "d"],
    "net": ["--k", "3"],
    "td": ["--k", "3", "--n", "5"],
    "params": ["--search", "odd", "--k", "3", "--h", "3"],
}


@pytest.mark.parametrize("command, option", [(c, "--cache-dir") for c in REQUIRED] + [
    (c, "--out") for c in ("plan-spectrum", "verify", "params")])
def test_parser_rejects_options_that_do_nothing(command, option, capsys):
    parser = cli.build_parser()
    parser.parse_args([command, *REQUIRED[command]])
    with pytest.raises(SystemExit):
        parser.parse_args([command, *REQUIRED[command], option, "x"])
    assert "unrecognized arguments" in capsys.readouterr().err
