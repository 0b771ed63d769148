import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import near_commuting
from fcslab import cli, modular, serialize, fixtures, systems


def run(argv):
    return cli.main(argv)


# The same one-liner is a CI step: dense LAPACK goes through NumPy only, so
# SciPy is loaded only by the two-sided check (scipy.sparse).
NO_SCIPY_SCRIPT = (
    "import sys, fcslab.cli as cli; "
    "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')[:5]; "
    "imported = scipy(); "
    "code = cli.main(['analyze', 'fixture:aklt', '--no-amalgam', '-o', sys.argv[1]]); "
    "sys.exit(code or imported or scipy() or 0)")


def test_cli_without_two_sided_check_loads_no_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path / "r.json")],
        capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert json.loads((tmp_path / "r.json").read_text())["is_pure"] is True


def test_analyze_fixture_ok(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["analyze", "fixture:bernoulli-uniform", "-o", str(out)])
    assert code == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["is_pure"] is True
    assert "provenance" in doc and "input_sha256" in doc["provenance"]
    summary = capsys.readouterr().err
    assert "certificate chain" in summary


def test_analyze_stdout_json(capsys):
    code = run(["analyze", "fixture:bernoulli-basis", "--no-amalgam"])
    assert code == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["is_pure"] is True
    assert "twosided" not in doc


def test_analyze_includes_twosided_block(tmp_path):
    out = tmp_path / "r.json"
    code = run(["analyze", "fixture:aklt", "--level", "2", "-o", str(out)])
    assert code == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["twosided"]["level"] == 2
    assert doc["twosided"]["moment_deviation"] < 1e-8


def test_analyze_file_input(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(serialize.dumps_system(fixtures.period_two()))
    code = run(["analyze", str(path), "--no-amalgam", "-o",
                str(tmp_path / "out.json")])
    assert code == cli.EXIT_OK


def test_seed_override(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["analyze", "fixture:random", "--seed", "5", "--no-amalgam",
                "-o", str(a)]) == cli.EXIT_OK
    assert run(["analyze", "fixture:random-seeded:5", "--no-amalgam",
                "-o", str(b)]) == cli.EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_one_parser_serves_independent_calls(tmp_path):
    # main keeps one parser per process; the flags of a call do not reach
    # the next one
    paths = [tmp_path / f"{k}.json" for k in range(3)]
    for flags, path in zip([["--no-amalgam"], ["--level", "3"], ["--no-amalgam"]],
                           paths):
        assert run(["analyze", "fixture:aklt", *flags, "-o", str(path)]) == cli.EXIT_OK
    first, deep = (json.loads(p.read_text()) for p in paths[:2])
    assert "twosided" not in first and first["provenance"]["level"] is None
    assert deep["twosided"]["level"] == deep["provenance"]["level"] == 3
    assert paths[0].read_bytes() == paths[2].read_bytes()
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_seed_override_keeps_the_shape(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["analyze", "fixture:random-seeded:1:3:3", "--seed", "5",
                "--no-amalgam", "-o", str(a)]) == cli.EXIT_OK
    assert run(["analyze", "fixture:random-seeded:5:3:3", "--no-amalgam",
                "-o", str(b)]) == cli.EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["gns_dim"] == 9
    assert run(["moments", "fixture:random-seeded:1:20:2", "--max-len", "1"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 3 * 3  # header and every moment of 3 words
    assert lines[1].startswith("I=(-) J=(-)  +1.000000000000")


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["analyze", str(bad)]) == cli.EXIT_PARSE
    assert run(["analyze", "fixture:no-such-thing"]) == cli.EXIT_PARSE
    capsys.readouterr()


def test_validation_error_exit_code(tmp_path, capsys):
    doc = serialize.system_to_dict(fixtures.aklt())
    doc["v"][0][0][0] = [5.0, 0.0]
    bad = tmp_path / "defect.json"
    bad.write_text(json.dumps(doc))
    assert run(["analyze", str(bad)]) == cli.EXIT_VALIDATION
    capsys.readouterr()


@pytest.mark.parametrize("rho, code", [
    (np.eye(2) / 2, cli.EXIT_OK),
    (np.eye(3) / 3, cli.EXIT_PARSE),
    (np.diag([1.0, 0.0]), cli.EXIT_VALIDATION),
], ids=["invariant", "wrong-shape", "not-invariant"])
def test_rho_in_system_file_is_checked(rho, code, tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text(serialize.dumps_system(fixtures.aklt(), rho=rho))
    assert run(["analyze", str(path), "--no-amalgam",
                "-o", str(tmp_path / "r.json")]) == code
    err = capsys.readouterr().err
    if code != cli.EXIT_OK:
        assert len([line for line in err.splitlines() if "error:" in line]) == 1


def test_fixture_subcommand(capsys):
    assert run(["fixture", "aklt"]) == cli.EXIT_OK
    text = capsys.readouterr().out
    sys_, _, meta = serialize.loads_system(text)
    assert sys_.d == 3 and meta["name"] == "aklt"


def test_moments_subcommand(capsys):
    assert run(["moments", "fixture:aklt", "--max-len", "2"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "I=(0) J=(0)" in out


def test_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["analyze", "fixture:aklt", "--level", "2", "-o", str(a)])
    run(["analyze", "fixture:aklt", "--level", "2", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("level", ["0", "-1", "1"])
def test_level_below_one_is_a_parse_error(level, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["analyze", "fixture:aklt", "--level", level])
    assert exc.value.code == cli.EXIT_PARSE
    assert "level must be >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["analyze", "fixture:aklt", "--no-amalgam", "--cutoff", "9"],
    ["moments", "fixture:aklt", "--max-len", "9"],
], ids=["analyze", "moments"])
def test_oversized_moment_table_is_refused(argv, capsys):
    # W = (3^10 - 1) / 2 = 29524 words: a 13 GiB moment matrix
    assert run(argv) == cli.EXIT_INTERNAL
    assert capsys.readouterr().err.splitlines() == [
        "internal consistency failure: a moment table of word length <= 9 "
        "needs about 13304 MiB for the 29524 x 29524 moment matrix and two "
        "29524 x 4 word stacks, over the budget of 1024 MiB"]


@pytest.mark.parametrize("argv, line", [
    (["analyze", "fixture:aklt", "--level", "10000"],
     "internal consistency failure: level 10000 needs about 5.40e+19080 MiB "
     "for 4.89e+4775 x 4.89e+4775 word-pair blocks of the raw Gram, 6 sparse "
     "shift compressions and moment vectors of dimension 1.06e+9543, over the "
     "budget of 1024 MiB"),
    (["moments", "fixture:aklt", "--max-len", "10000"],
     "internal consistency failure: a moment table of word length <= 10000 "
     "needs about 9.14e+9537 MiB for the 2.45e+4771 x 2.45e+4771 moment "
     "matrix and two 2.45e+4771 x 4 word stacks, over the budget of 1024 MiB"),
], ids=["analyze", "moments"])
def test_huge_sizes_are_refused_in_one_short_line(argv, line, capsys):
    # sizes with thousands of digits are printed in scientific form
    assert run(argv) == cli.EXIT_INTERNAL
    assert capsys.readouterr().err.splitlines() == [line]


@pytest.mark.parametrize("argv", [
    ["analyze", "fixture:aklt", "--level", "100000000"],
    ["moments", "fixture:aklt", "--max-len", "100000000"],
], ids=["analyze", "moments"])
def test_refusal_cost_does_not_grow_with_the_size(argv, capsys):
    # the budget is checked on logarithms: no size with 10^7 digits is formed
    start = time.perf_counter()
    assert run(argv) == cli.EXIT_INTERNAL
    assert time.perf_counter() - start < 1.0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].endswith("over the budget of 1024 MiB")


def test_moment_table_within_budget_runs(tmp_path):
    # W = 3280 words: a 164 MiB moment matrix
    assert run(["analyze", "fixture:aklt", "--no-amalgam", "--cutoff", "7",
                "-o", str(tmp_path / "r.json")]) == cli.EXIT_OK


def test_oversized_dual_diagnostics_are_refused(monkeypatch, capsys):
    # d = 24: W = (24^5 - 1) / 23 = 346201 words of length <= 4, whose two
    # W x W moment Grams alone would take 3.5 TiB; refused before any word
    # vector is built
    def unbudgeted(*args, **kwargs):
        raise AssertionError("word vectors built over the budget")

    monkeypatch.setattr(modular, "word_vectors", unbudgeted)
    assert run(["analyze", "fixture:random-seeded:0:2:24",
                "--no-amalgam"]) == cli.EXIT_INTERNAL
    assert capsys.readouterr().err.splitlines() == [
        "internal consistency failure: the moment-duality check over words "
        "of length <= 4 needs about 3657773 MiB for two 346201 x 346201 "
        "moment Grams and four 346201 x 4 word-vector arrays, over the "
        "budget of 1024 MiB"]


def test_dual_diagnostics_within_budget_run(tmp_path):
    # d = 4: W = 341 words of length <= 4
    assert run(["analyze", "fixture:random-seeded:0:3:4", "--no-amalgam",
                "-o", str(tmp_path / "r.json")]) == cli.EXIT_OK


_NO_MEMORY = ("Unable to allocate 1.53 GiB for an array with shape "
              "(160000, 640) and data type complex128")


@pytest.mark.parametrize("argv, stage, error, reason", [
    (["analyze", "fixture:aklt", "--no-amalgam"], "canonicalize",
     MemoryError(_NO_MEMORY), _NO_MEMORY),
    # a failed LAPACK workspace allocation raises a bare MemoryError
    (["analyze", "fixture:aklt", "--no-amalgam"], "canonicalize",
     MemoryError(), "MemoryError"),
    (["moments", "fixture:aklt"], "moment_table",
     MemoryError(_NO_MEMORY), _NO_MEMORY),
], ids=["analyze", "analyze-bare", "moments"])
def test_failed_allocation_is_an_internal_failure(argv, stage, error, reason,
                                                  monkeypatch, capsys):
    # an allocation the address space refuses ends in exit 4 and one line
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(systems, stage, exhausted)
    assert run(argv) == cli.EXIT_INTERNAL
    assert capsys.readouterr().err.splitlines() == [
        f"internal consistency failure: {reason}"]


def test_moments_print_rounded_values_without_signed_zeros(capsys):
    assert run(["moments", "fixture:random-seeded:1:4:2",
                "--max-len", "2"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()[1:]
    sys_ = fixtures.by_name("random-seeded:1:4:2")
    ws, vals = systems.moment_table(
        sys_, systems.invariant_states(sys_).mean_state, 2)
    index = {",".join(map(str, w)) or "-": k for k, w in enumerate(ws)}
    assert lines and not any("-0.000000000000" in line for line in lines)
    for line in lines:
        words, value = line.split("  ")
        i, j = (index[w[3:-1]] for w in words.split())
        assert abs(complex(value) - vals[i, j]) <= 1e-12, line
    # phi(v_I v_I*) is real, and its round-off imaginary part prints as +0
    assert "I=(1,0) J=(1,0)  +0.193950619301+0.000000000000j" in lines


@pytest.mark.parametrize("command", ["analyze", "moments"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_tol_must_be_positive_and_finite(command, tol, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, "fixture:aklt", "--tol", tol])
    assert exc.value.code == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"fcslab {command}: error: argument --tol: "
        f"tol must be a positive finite number, got {tol}"]


@pytest.mark.parametrize("argv, system", [
    (["analyze", "{}"], '{"n": 2, "d": 0, "v": []}'),
    (["analyze", "{}"], '{"n": 2, "d": 1, "v": 5}'),
    (["analyze", "{}"], '{"n": 1, "d": 1, "v": [[[[NaN, 0.0]]]]}'),
    (["analyze", "fixture:random-seeded:abc"], None),
    (["analyze", "fixture:random-seeded:1:2"], None),
    (["analyze", "fixture:random-seeded:1:65:2"], None),
    (["analyze", "fixture:aklt", "--cutoff", "-1"], None),
    (["moments", "fixture:aklt", "--max-len", "-1"], None),
], ids=["no-operators", "v-not-a-list", "nan-entry", "bad-seed",
        "seed-without-d", "n-too-large", "negative-cutoff", "negative-max-len"])
def test_malformed_input_is_a_parse_error(argv, system, tmp_path, capsys):
    if system is not None:
        path = tmp_path / "system.json"
        path.write_text(system)
        argv = [arg.format(path) for arg in argv]
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    assert code == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


def test_tol_reaches_twosided_pipeline(tmp_path, monkeypatch):
    calls = []

    def recording(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append((name, kwargs.get("tol")))
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    stages = [(systems, "invariant_states"), (systems, "compress_to_support"),
              (systems, "canonicalize"), (modular, "modular_data"),
              (modular, "dual_system")]
    for module, name in stages:
        recording(module, name)
    out = tmp_path / "r.json"
    code = run(["analyze", "fixture:bernoulli-uniform", "--level", "2",
                "--tol", "2e-9", "-o", str(out)])
    assert code == cli.EXIT_OK
    assert "twosided" in json.loads(out.read_text())
    # once: the purity battery and the two-sided check share one pipeline
    for _, name in stages:
        assert [tol for n, tol in calls if n == name] == [2e-9], name


def _amplitude_damping(eps, gamma=0.5):
    """Generalized amplitude damping, v_k = K_k*, invariant diag(1-eps, eps)."""
    p = 1.0 - eps
    e01 = np.array([[0.0, 1.0], [0.0, 0.0]])
    kraus = [np.sqrt(p) * np.diag([1.0, np.sqrt(1 - gamma)]),
             np.sqrt(p * gamma) * e01,
             np.sqrt(1 - p) * np.diag([np.sqrt(1 - gamma), 1.0]),
             np.sqrt((1 - p) * gamma) * e01.T]
    return systems.KrausSystem(ops=np.stack([k.conj().T for k in kraus]))


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
@pytest.mark.parametrize("extra", [[], ["--no-amalgam"]])
def test_amplitude_damping_near_the_singular_limit_passes(tmp_path, eps,
                                                          extra):
    # J and Delta, read off rho = diag(1 - eps, eps), inherit its
    # conditioning, which worsens as eps -> 0; short of the exit-4 cases
    # below every residual stays small
    path, out = tmp_path / "gad.json", tmp_path / "r.json"
    path.write_text(serialize.dumps_system(_amplitude_damping(eps)))
    assert run(["analyze", str(path), "-o", str(out)] + extra) == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert ("twosided" in doc) == (not extra)
    assert max(doc["residuals"].values()) <= 1e-8, doc["residuals"]


@pytest.mark.parametrize("eps", [1e-6, 1e-8])
def test_loose_tol_on_a_near_commuting_family(tmp_path, eps):
    # at --tol 1e-4 the commutant holds the block projection, which commutes
    # with the letters only up to about eps, so the center read from it is
    # not trivial; the GNS algebra is still the whole of M_4 that the
    # letters generate
    path, out = tmp_path / "nc.json", tmp_path / "r.json"
    path.write_text(serialize.dumps_system(near_commuting(eps)))
    assert run(["analyze", str(path), "--tol", "1e-4", "--no-amalgam",
                "-o", str(out)]) == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert not doc["is_factor"]
    assert doc["gns_dim"] == 16


def test_singular_modular_operator_is_an_internal_failure(tmp_path, capsys):
    # at eps = 1e-8 Delta has condition number 1e16 and the modular identity
    # J Delta J = Delta^{-1} misses its threshold (jdj reads 4.5e-8); at
    # eps = 5e-10 the support compression keeps the eps eigenvalue and
    # canonicalize refuses the Gram matrix it gives, which is the pipeline
    # disagreeing with itself, not an invalid input
    for eps in (1e-8, 5e-10):
        path = tmp_path / "gad.json"
        path.write_text(serialize.dumps_system(_amplitude_damping(eps)))
        assert run(["analyze", str(path), "-o", str(tmp_path / "r.json")]) \
            == cli.EXIT_INTERNAL, eps
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines()
                    if line.startswith("internal consistency failure:")]) == 1
