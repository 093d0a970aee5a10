from __future__ import annotations

import builtins
import hashlib
from pathlib import Path

import pytest

from steinerkit import cli, permgrp, textfile
from steinerkit import design as design_module
from steinerkit.basedesigns import build_base_design, steiner_triple_system
from steinerkit.cli import main
from steinerkit.design import VerifyReport, read_design, verify_2design, write_design
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
    assert rep["error"] == "BadParams: group order 2 is even"


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


@pytest.mark.parametrize("x1, code", [("7,9", 0), ("8", 1)], ids=["plan", "bad-x1"])
def test_plan_spectrum_warning_is_a_report_line(capsys, x1, code):
    assert main(["plan-spectrum", "--k", "3", "--w", "7", "--x1", x1, "--width", "2000"]) == code
    out, err = capsys.readouterr()
    assert err == ""
    assert ("warning=subdesign-embedding threshold x0 unset; witnesses assume every x "
            "above it embeds") in out.splitlines()


def test_compose_rc_and_1blocked(tmp_path, capsys):
    fano = tmp_path / "fano.design"
    run(capsys, "search-base-block", "--p", "7", "--k", "3", "--out", str(fano))
    sts9 = tmp_path / "sts9.design"
    from steinerkit.basedesigns import steiner_triple_system
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
    assert rep["cache"] == "miss"
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
    assert rep2["cache"] == "hit"


def test_cache_hit_is_reverified(tmp_path, capsys):
    argv = ["compose", "--mode", "cyclic", "--k", "3", "--h", "2",
            "--cache-dir", str(tmp_path / "cache")]
    code, rep = run(capsys, *argv)
    assert code == 0 and rep["cache"] == "miss"
    # another valid design under the same key: W relabeled by a transposition
    (entry,) = (tmp_path / "cache").iterdir()
    w = read_design(entry)
    write_design(w.relabel(Permutation.from_cycles(w.v, [(0, 1)])), entry)
    code, rep = run(capsys, *argv)
    assert code == 1
    assert rep["cache"] == "hit"
    assert rep["error"] == (f"SteinerError: cache entry {entry} "
                            "fails the group_is_automorphisms check")


def test_group_without_generators_is_trivial(tmp_path, capsys):
    gf = tmp_path / "none.group"
    gf.write_text("PERMGROUP degree=7 gens=0\n")
    out = tmp_path / "fano.design"
    code, rep = run(capsys, "km-search", "--v", "7", "--k", "3", "--group-file", str(gf),
                    "--out", str(out))
    assert code == 0 and rep["group_order"] == "1"
    assert verify_2design(read_design(out)).ok
    # seven one-point orbits cannot be forced as blocks of size 3
    code, rep = run(capsys, "km-search", "--v", "7", "--k", "3", "--group-file", str(gf),
                    "--orbit-blocks")
    assert code == 1
    assert rep["error"] == "SteinerError: point orbits are not k-sets; cannot force them as blocks"


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
    assert rep["error"] == "BadParams: gcd(k-1, h) = 3 has an odd factor"


def test_compose_cyclic_with_explicit_files(tmp_path, capsys):
    from steinerkit.basedesigns import km_search, steiner_triple_system

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


@pytest.mark.parametrize("argv, group", [
    (["search-base-block", "--p", "19", "--k", "3"], None),
    (["construct-odd", "--k", "3"], Permutation.identity(2)),
    (["km-search", "--v", "21", "--k", "3", "--orbit-blocks"],
     Permutation(tuple((i + 7) % 21 for i in range(21)))),
    (["td", "--k", "3", "--n", "6", "--mode", "cyclic"], None),
    (["net", "--n", "5", "--k", "3"], None),
], ids=["search-base-block", "construct-odd", "km-search", "td", "net"])
def test_deterministic_outputs(tmp_path, capsys, argv, group):
    if group is not None:
        argv = [*argv, "--group-file", write_group(tmp_path / "g.group", group)]
    outputs, reports = [], []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
        reports.append([line for line in capsys.readouterr().out.splitlines()
                         if not line.startswith(("time.", "command=", "output="))])
    assert outputs[0] == outputs[1]
    assert reports[0] == reports[1]


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


@pytest.mark.parametrize("argv, message", [
    (["params", "--search", "odd", "--k", "3", "--h", "2"], "group order h=2 must be odd"),
    (["params", "--search", "even", "--k", "3", "--h", "6"], "h=6 must be a multiple of 4"),
    (["plan-spectrum", "--k", "3", "--w", "7", "--x1", "8"],
     "x1=8 must be admissible and exceed max(x0, k)"),
], ids=["params-odd", "params-even", "plan-spectrum"])
def test_parameter_preconditions_are_reported(capsys, argv, message):
    code, rep = run(capsys, *argv)
    assert rep["error"] == f"BadParams: {message}"
    assert rep["status"] == "fail"
    assert code == 1


@pytest.mark.parametrize("argv, message", [
    (["construct-odd", "--k", "3", "--group-file", "{triv}", "--base-block", "0,1,x"],
     "BadParams: --base-block '0,1,x' is not a list of integers"),
    (["compose", "--w", "{fano}", "--y", "{fano}", "--x-points", "a"],
     "BadParams: --x-points 'a' is not a list of integers"),
    (["compose", "--mode", "cyclic", "--w", "{fano}", "--y", "{fano}", "--cyclic", "0,0,1"],
     "BadParams: --cyclic '0,0,1' is not a permutation of 0..2"),
    (["compose", "--mode", "1blocked", "--w", "{fano}"],
     "BadParams: --mode 1blocked needs --y --group-file"),
    (["plan-spectrum", "--k", "3", "--w", "7", "--x1", "7,q"],
     "BadParams: --x1 '7,q' is not a list of integers"),
    (["verify", "--design", "{missing}"],
     "FileNotFoundError: [Errno 2] No such file or directory: '{missing}'"),
    (["construct-aligned", "--k", "3", "--group-file", "{z2}", "--p", "20"],
     "BadParams: --p 20 must be a prime with (p-1) mod (k-1) = 0"),
    (["construct-aligned", "--k", "5", "--group-file", "{z2}", "--p", "11"],
     "BadParams: --p 11 must be a prime with (p-1) mod (k-1) = 0"),
    (["construct-aligned", "--k", "1", "--group-file", "{z2}"],
     "SteinerError: need k odd and >= 3, |G| even, gcd(k,|G|)=1; got k=1, |G|=2"),
    (["net", "--k", "3"], "BadParams: --mode affine needs --n"),
    (["net", "--mode", "semilinear", "--k", "3"], "BadParams: --mode semilinear needs --q --m"),
    (["net", "--mode", "semilinear", "--k", "3", "--q", "4"],
     "BadParams: --mode semilinear needs --m"),
    (["compose", "--mode", "cyclic"], "BadParams: --mode cyclic without --w needs --k --h"),
    (["compose", "--mode", "cyclic", "--k", "3"],
     "BadParams: --mode cyclic without --w needs --h"),
    (["verify", "--design", "{fano}", "--group-file", "{degree0}"],
     "ParseError: line 1: PERMGROUP header needs degree >= 1 and gens >= 0, "
     "got degree=0, gens=0"),
    (["construct-aligned", "--k", "3", "--group-file", "{z2}", "--cyclic", "0 2 1"],
     "BadParams: --cyclic has degree 3, the ingredient needs degree p=19"),
    (["compose", "--mode", "rc", "--w", "{fano}", "--y", "{sts9}", "--x-points", "99"],
     "BadParams: subdesign points (99,) are not all in 0..8"),
    (["compose", "--mode", "rc", "--w", "{fano}", "--y", "{sts9}", "--x-points", "-1"],
     "BadParams: subdesign points (-1,) are not all in 0..8"),
    (["compose", "--mode", "rc", "--w", "{fano}", "--y", "{fano}", "--x-points", "0,0"],
     "BadParams: subdesign points (0, 0) repeat a point"),
    (["plan-spectrum", "--k", "3", "--w", "7", "--x1", ""], "BadParams: the x1 list is empty"),
    (["plan-spectrum", "--k", "3", "--w", "7", "--x1", "7", "--width", "-5", "--x0", "1"],
     "BadParams: window [14413, 14408] is empty"),
], ids=["base-block", "x-points", "cyclic", "compose-files", "x1", "missing-design",
        "aligned-p-not-prime", "aligned-p-not-1-mod-k-1", "aligned-k-1", "net-affine-no-n",
        "net-semilinear-no-q-m", "net-semilinear-no-m", "compose-cyclic-no-w-k-h",
        "compose-cyclic-no-h", "group-degree-0", "aligned-cyclic-degree", "x-point-past-y",
        "x-point-negative", "x-point-repeated", "x1-empty", "window-empty"])
def test_malformed_input_is_reported(tmp_path, capsys, argv, message):
    paths = {"triv": write_group(tmp_path / "triv.group", Permutation.identity(1)),
             "z2": write_group(tmp_path / "z2.group", Permutation.from_cycles(2, [(0, 1)])),
             "fano": str(tmp_path / "fano.design"), "missing": str(tmp_path / "missing.design"),
             "sts9": str(tmp_path / "sts9.design"), "degree0": str(tmp_path / "degree0.group")}
    write_design(build_base_design(7, 3, (0, 1, 3)).design, paths["fano"])
    write_design(steiner_triple_system(9), paths["sts9"])
    Path(paths["degree0"]).write_text("PERMGROUP degree=0 gens=0\n")
    code, rep = run(capsys, *(arg.format(**paths) for arg in argv))
    assert rep["error"] == message.format(**paths)
    assert rep["status"] == "fail"
    assert code == 1


def test_td_out_is_atomic(tmp_path, capsys, monkeypatch):
    path = tmp_path / "td.txt"
    code, rep = run(capsys, "td", "--k", "3", "--n", "5", "--mode", "cyclic", "--out", str(path))
    old = path.read_bytes()
    assert code == 0 and rep["sha256"] == hashlib.sha256(old).hexdigest()

    class HalfWriter:
        """A file that takes half of what it is given, then reports a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(textfile, "open",
                        lambda file, mode="r": HalfWriter(builtins.open(file, mode)),
                        raising=False)
    code, rep = run(capsys, "td", "--k", "3", "--n", "7", "--mode", "cyclic", "--out", str(path))
    assert rep["error"] == "OSError: [Errno 28] No space left on device"
    assert code == 1 and "sha256" not in rep
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["td.txt"]


def test_one_blocked_without_group_file_is_refused(tmp_path, capsys):
    out = tmp_path / "fano.design"
    run(capsys, "search-base-block", "--p", "7", "--k", "3", "--out", str(out))
    code, rep = run(capsys, "verify", "--design", str(out), "--one-blocked")
    assert rep["error"] == "BadParams: --one-blocked needs --group-file"
    assert "check.pairs_once" not in rep
    assert code == 1


def test_search_base_block_reports_pair_detail_and_time(capsys):
    code, rep = run(capsys, "search-base-block", "--p", "19", "--k", "3")
    assert code == 0
    assert rep["check.pairs_once"] == "ok (deficit=0 surplus=0)"
    assert float(rep["time.pairs_once"]) >= 0


def test_unversioned_cache_entry_is_a_miss(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    key = "km:v=21:k=3:semiregular_shift=7:orbit-blocks"
    stale = cache / f"{hashlib.sha256(key.encode()).hexdigest()[:24]}.design"
    stale.write_text("DESIGN in a format no reader of this version knows\n")
    argv = ["compose", "--mode", "cyclic", "--k", "3", "--h", "2", "--cache-dir", str(cache)]
    code, rep = run(capsys, *argv)
    assert code == 0 and rep["cache"] == "miss"
    (rebuilt,) = set(cache.iterdir()) - {stale}
    assert read_design(rebuilt).v == 21
    code, rep = run(capsys, *argv)
    assert code == 0 and rep["cache"] == "hit"


def _fano_and_z7(tmp_path, capsys) -> list[str]:
    out = tmp_path / "fano.design"
    run(capsys, "search-base-block", "--p", "7", "--k", "3", "--out", str(out))
    shift = Permutation(tuple((i + 1) % 7 for i in range(7)))
    return ["verify", "--design", str(out),
            "--group-file", write_group(tmp_path / "z7.group", shift, shift * shift),
            "--one-blocked"]


CYCLIC_PIPELINE = ["compose", "--mode", "cyclic", "--k", "3", "--h", "2"]
FAILING_KERNELS = {
    "pairs_once": (design_module, "verify_2design",
                   lambda d: VerifyReport(False, 1, 0, d.b), None),
    "group_is_automorphisms": (design_module, "is_automorphism", lambda d, g: False, None),
    "one_blocked": (design_module, "stabilizer_scan",
                    lambda d, group: (False, ((0, 1, 3), group.generators[0])), None),
    "fixes_exactly_one_point": (Permutation, "fixed_points", lambda self: (), CYCLIC_PIPELINE),
    "semiregular_elsewhere": (permgrp, "is_semiregular",
                              lambda group, pts: (False, []), CYCLIC_PIPELINE),
}


@pytest.mark.parametrize("name", sorted(FAILING_KERNELS))
def test_design_check_is_computed(tmp_path, monkeypatch, capsys, name):
    owner, attr, failing, argv = FAILING_KERNELS[name]
    argv = argv or _fano_and_z7(tmp_path, capsys)
    code, rep = run(capsys, *argv)
    assert code == 0 and rep[f"check.{name}"].startswith("ok")
    monkeypatch.setattr(owner, attr, failing)
    code, rep = run(capsys, *argv)
    assert rep[f"check.{name}"].startswith("FAIL")
    assert float(rep[f"time.{name}"]) >= 0
    # one_blocked runs only on the verify route, and only after the generators passed
    assert ("check.one_blocked" in rep) == (name in ("pairs_once", "one_blocked"))
    assert code == 1


def test_verify_one_blocked_checks_each_generator_once(tmp_path, monkeypatch, capsys):
    argv = _fano_and_z7(tmp_path, capsys)
    calls = []
    real = design_module.is_automorphism

    def counted(d, g):
        calls.append(g)
        return real(d, g)

    monkeypatch.setattr(design_module, "is_automorphism", counted)
    monkeypatch.setattr(cli, "is_automorphism", counted, raising=False)
    code, rep = run(capsys, *argv)
    assert code == 0 and rep["check.one_blocked"] == "ok"
    assert len(calls) == 2 and calls[0] != calls[1]
