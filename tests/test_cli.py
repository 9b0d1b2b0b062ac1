import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rlentropy
from rlentropy import cli, cones, genfun, pipeline
from rlentropy.model import AssumptionError

from conftest import fixture_path, free_product_text


SRC = Path(rlentropy.__file__).resolve().parent.parent

# Run every command on fg2 in one fresh interpreter; print the scipy modules
# that were loaded.
NO_SCIPY_SNIPPET = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from rlentropy import cli
fg2, biased = sys.argv[2:]
for argv in (["validate", fg2], ["analyze", fg2], ["entropy", fg2],
             ["simulate", fg2, "--steps", "200", "--trajectories", "2",
              "--crosscheck"],
             ["sweep", fg2, biased, "--grid", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--format", "json", *argv]) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_commands_run_without_scipy():
    proc = subprocess.run(
        [sys.executable, "-I", "-c", NO_SCIPY_SNIPPET, str(SRC),
         str(fixture_path("fg2")), str(fixture_path("fg2_biased"))],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_entropy_command_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma on first use, which costs a one-shot
    # command about 10 ms; the entropy path sorts without it
    snippet = ("import contextlib, io, sys\n"
               "sys.path.insert(0, sys.argv[1])\n"
               "from rlentropy import cli\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               "    assert cli.main(['--format', 'json', 'entropy',"
               " sys.argv[2]]) == 0\n"
               "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run(
        [sys.executable, "-I", "-c", snippet, str(SRC),
         str(fixture_path("fg2"))], capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_module_entry_point_warns_nothing():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "rlentropy.cli",
         "--help"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


def test_parser_built_once_on_first_main_call():
    # importing the package builds no parser; the first cli.main builds it
    # and later calls reuse it, so they leave none of its formatters,
    # sections or actions for the collector
    snippet = ("import sys\n"
               "sys.path.insert(0, sys.argv[1])\n"
               "import rlentropy, rlentropy.cli\n"
               "print(rlentropy.cli.build_parser.cache_info().currsize)\n")
    proc = subprocess.run([sys.executable, "-I", "-c", snippet, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.split() == ["0"], proc.stderr
    argv = ["--format", "json", "entropy", str(fixture_path("fg2"))]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        gc.collect()
        kinds = {type(obj).__module__ for obj in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert "argparse" not in kinds


def test_closed_output_ends_without_traceback():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "rlentropy.cli", "--format", "json", "analyze",
         str(fixture_path("fg2"))], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=env)
    proc.stdout.close()                # before the report is written
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_validate_exit_codes(capsys, tmp_path):
    code, _ = run_cli(capsys, "validate", str(fixture_path("fg2")))
    assert code == 0
    code, _ = run_cli(capsys, "validate", str(fixture_path("ne")))
    assert code == 0
    code, _ = run_cli(capsys, "validate", str(fixture_path("a2")))
    assert code == 1
    bad = tmp_path / "bad.rw"
    bad.write_text("alphabet: a\nrule: a -> : nonsense\n")
    assert cli.main(["validate", str(bad)]) == 2
    assert cli.main(["validate", str(tmp_path / "missing.rw")]) == 2


def test_validate_ne_fields(capsys):
    code, out = run_cli(capsys, "--format", "json", "validate",
                        str(fixture_path("ne")))
    data = json.loads(out)
    assert code == 0
    assert data["weak_symmetry"] is True
    assert data["suffix_irreducible"] is True
    assert data["relaxed_condition"] is True
    assert data["transient"] is True


def test_entropy_fg2_json(capsys):
    code, out = run_cli(capsys, "--format", "json", "entropy",
                        str(fixture_path("fg2")))
    data = json.loads(out)
    assert code == 0
    assert data["h"] == pytest.approx(0.5493061443340549, rel=0.01)
    assert data["method"] in ("unambiguous", "sandwich")
    assert data["manifest"]["command"] == "entropy"
    assert data["manifest"]["timestamp"] is None
    assert data["inequality_h_le_ell_log_alphabet"] is True
    assert data["marginal_equality_max_diff"] < 1e-12


def test_entropy_ne_and_line(capsys):
    code, out = run_cli(capsys, "--format", "json", "entropy",
                        str(fixture_path("ne")))
    data = json.loads(out)
    assert code == 0 and data["h"] == 0.0
    assert data["method"] == "non-expanding-zero"
    words = {(w["prefix"] + w["cycle"] * 6)[:6] for w in data["limit_words"]}
    assert words == {"ababab", "bababa"}

    code, out = run_cli(capsys, "--format", "json", "entropy",
                        str(fixture_path("line")))
    data = json.loads(out)
    assert code == 0 and data["h"] == 0.0
    assert data["method"] == "recurrent-zero"


def test_entropy_a2_domain_failure(capsys):
    code, _ = run_cli(capsys, "entropy", str(fixture_path("a2")))
    assert code == 1


def test_analyze_ne(capsys):
    code, out = run_cli(capsys, "--format", "json", "analyze",
                        str(fixture_path("ne")))
    data = json.loads(out)
    assert code == 0
    assert data["cone_types"] == 2
    assert data["expanding"] is False
    assert len(data["limit_words"]) == 2
    assert all(t["unambiguous"] for t in data["types"])


def test_simulate_reproducible_bytes(capsys):
    args = ("--format", "csv", "simulate", str(fixture_path("ne")),
            "--steps", "400", "--trajectories", "4", "--seed", "42")
    code, out1 = run_cli(capsys, *args)
    assert code == 0
    code, out2 = run_cli(capsys, *args)
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "trajectory,n,wordLength,lRate,greenRate"
    assert len(lines) == 1 + 4 * 10


def test_simulate_crosscheck(capsys):
    code, out = run_cli(capsys, "--format", "json", "simulate",
                        str(fixture_path("ne")), "--steps", "2000",
                        "--trajectories", "20", "--seed", "1", "--crosscheck")
    data = json.loads(out)
    assert code == 0
    assert data["ell_consistent_3se"] is True


def test_simulate_crosscheck_flags_wrong_drift(capsys, monkeypatch):
    analyze = pipeline.analyze

    def wrong_drift(*args, **kwargs):
        res = analyze(*args, **kwargs)
        res.report.ell = 0.9           # fg2's drift is 1/2
        return res
    monkeypatch.setattr(pipeline, "analyze", wrong_drift)
    code, out = run_cli(capsys, "--format", "json", "simulate",
                        str(fixture_path("fg2")), "--steps", "2000",
                        "--trajectories", "40", "--seed", "5", "--crosscheck")
    data = json.loads(out)
    assert code == 0 and data["ell_analytic"] == 0.9
    assert data["ell_consistent_3se"] is False


@pytest.mark.parametrize("argv", [
    "entropy --n-max 1", "entropy --n-max 0", "entropy --n-max -1",
    "sweep --grid 0", "sweep --n-max 1", "simulate --steps 0",
    "simulate --trajectories 0", "simulate --trajectories 1",
    "simulate --seed -1", "simulate --seed 18446744073709551616",
    "validate --tol nan", "validate --tol 0", "validate --tol -1",
    "validate --tol inf", "entropy --tol-recurrence nan",
    "analyze --tol-recurrence 0", "entropy --gap-tol nan",
    "sweep --gap-tol 0", "entropy --budget -1",
])
def test_out_of_range_counts_are_input_errors(capsys, argv):
    command, *options = argv.split()
    models = [str(fixture_path("fg2"))] * (2 if command == "sweep" else 1)
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, *models, *options])
    err = capsys.readouterr().err
    assert exit_.value.code == 2
    assert f"argument {options[0]}: must be " in err
    assert "Traceback" not in err


def test_sweep_constant_and_mismatch(capsys):
    code, out = run_cli(capsys, "--format", "json", "sweep",
                        str(fixture_path("fg2")), str(fixture_path("fg2")),
                        "--grid", "3")
    data = json.loads(out)
    assert code == 0
    hs = [r["h"] for r in data["rows"]]
    assert max(hs) - min(hs) < 1e-9

    code, _ = run_cli(capsys, "sweep", str(fixture_path("fg2")),
                      str(fixture_path("ne")))
    assert code == 1


def test_report_embeds_manifest_and_replays(capsys):
    args = ("--format", "json", "entropy", str(fixture_path("ne")))
    code, out1 = run_cli(capsys, *args)
    data = json.loads(out1)
    params = data["manifest"]["parameters"]
    # replaying the manifest's recorded parameters reproduces the bytes
    replay = ("--format", "json", "entropy", data["manifest"]["models"][0]["path"],
              "--n-max", str(params["n_max"]),
              "--gap-tol", str(params["gap_tol"]),
              "--budget", str(params["budget"]))
    code, out2 = run_cli(capsys, *replay)
    assert out1 == out2


def test_out_of_memory_is_domain_failure(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError()
    monkeypatch.setattr(pipeline, "analyze", exhausted)
    code = cli.main(["entropy", str(fixture_path("fg2"))])
    err = capsys.readouterr().err
    assert code == 1
    assert err.strip() == "domain failure: out of memory"


def test_256_letter_model_is_a_quick_domain_failure(capsys, monkeypatch,
                                                    tmp_path):
    # o -> x and back for 256 letters: the reach relation's pair x pair
    # matrices would take 4 GiB each
    letters = [chr(0x100 + i) for i in range(256)]
    path = tmp_path / "star256.rw"
    path.write_text("\n".join(["alphabet: " + " ".join(letters),
                               *(f"rule: o -> {x} : 1/256" for x in letters),
                               *(f"rule: {x} -> o : 1" for x in letters)]))

    def allocated(*args):
        raise AssertionError("pair matrix allocated")
    monkeypatch.setattr(cones.ReachRelation, "_saturate_reach22", allocated)
    start = time.perf_counter()
    code = cli.main(["simulate", str(path), "--steps", "10",
                     "--trajectories", "2"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("domain failure: 65536 letter pairs exceed")
    assert elapsed < 1.0


def test_covering_budgets_are_domain_failures(capsys, monkeypatch, tmp_path):
    # Z_2 * Z_3 needs a non-uniform cut, found after a handful of cuts
    path = tmp_path / "z2z3.rw"
    path.write_text(free_product_text((2, 3)))
    monkeypatch.setattr(cones, "CUT_BUDGET", 2)
    with pytest.raises(AssumptionError, match="budget of 2 cuts"):
        cones.build_atlas(rlentropy.load_model(path))
    code = cli.main(["analyze", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("domain failure: covering search for type ab "
                          "exceeded its budget of 2 cuts")
    assert "Traceback" not in err
    # fg2's uniform cut spells out 27 words at its depth
    monkeypatch.setattr(cones, "WORD_BUDGET", 10)
    with pytest.raises(AssumptionError, match="exceeded 10 words"):
        cones.build_atlas(rlentropy.load_model(fixture_path("fg2")))


def test_generating_functions_solved_once_per_command(capsys, monkeypatch):
    solve_all, calls = genfun.solve_all, []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_all(*args, **kwargs)
    monkeypatch.setattr(genfun, "solve_all", counted)
    for argv in (["entropy"], ["simulate", "--steps", "200",
                               "--trajectories", "2", "--crosscheck"]):
        calls.clear()
        code, _ = run_cli(capsys, *argv, str(fixture_path("fg2")))
        assert code == 0 and len(calls) == 1, argv


def test_every_command_solves_once_at_the_requested_tolerances(
        capsys, monkeypatch):
    solve_all, calls = genfun.solve_all, []

    def counted(*args, **kwargs):
        calls.append((kwargs.get("tol"), kwargs.get("xi_tol")))
        return solve_all(*args, **kwargs)
    monkeypatch.setattr(genfun, "solve_all", counted)
    fg2 = str(fixture_path("fg2"))
    tols = ["--tol", "1e-10", "--tol-recurrence", "1e-06"]
    for argv in (["validate", fg2], ["analyze", fg2], ["entropy", fg2],
                 ["simulate", fg2, "--steps", "200", "--trajectories", "2",
                  "--crosscheck"],
                 ["sweep", fg2, fg2, "--grid", "1"]):
        calls.clear()
        code, out = run_cli(capsys, "--format", "json", *argv, *tols)
        assert code == 0 and calls == [(1e-10, 1e-6)], argv
        params = json.loads(out)["manifest"]["parameters"]
        assert (params["tol"], params["tol_recurrence"]) == (1e-10, 1e-6)
