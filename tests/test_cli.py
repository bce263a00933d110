import gc
import json
import os
import pathlib
import subprocess
import sys
import weakref

import pytest

from modlab import classify, cli, firstness, modules
from modlab.cli import main
from modlab.errors import JobParseError, SizeCapExceeded
from modlab.jobs import (parse_job, render_structured, render_text, run_job)
from modlab.modules import FiniteModule
from modlab.rings import FiniteRing

DEMO = """
# a small job over the integers mod 4
[ring]
cyclic(4)

[modules]
M = regular
S = sub(M, S1)
Q = quotient(M, S1)
D = direct_sum(M, S)
C = cyclic(M, 2)

[preradicals]
t = trad(I1)
s = comp(soc, t)
a = alpha(S1@M)
w = omega(S1@M)
j = join(a, zero)

[checks]
bjkn_prime M
prime M
rpid_first M
diuniform M
a_first M a
a_fully_first D a
classes M s
evaluate s M
flags a
compare a w
classify
lep
verify T15

[universe]
depth = 2

[output]
format = text
"""


def test_parse_job_resolves_everything():
    spec = parse_job(DEMO)
    assert spec.ring.order == 4
    assert set(spec.modules) == {"M", "S", "Q", "D", "C"}
    assert spec.modules["S"].order == 2
    assert spec.modules["D"].order == 8
    assert len(spec.preradicals) == 5
    assert len(spec.checks) == 13
    assert spec.output_format == "text"


def test_parse_preradical_depth_two_tree():
    # a depth-two expression written inline pretty-prints to canonical form;
    # names of earlier declarations are kept as names
    doc = ("[ring]\ncyclic(4)\n\n[preradicals]\n"
           "s = comp( soc , trad( I1 ) )\n")
    spec = parse_job(doc)
    assert ("s", "comp(soc,trad(I1))") in spec.preradical_texts
    spec2 = parse_job(DEMO)
    assert ("s", "comp(soc,t)") in spec2.preradical_texts


def test_round_trip_canonical_document():
    spec = parse_job(DEMO)
    canon = spec.canonical_document()
    spec2 = parse_job(canon)
    assert spec == spec2
    assert spec2.canonical_document() == canon


def test_unresolved_module_reference():
    doc = "[ring]\ncyclic(4)\n\n[checks]\nbjkn_prime Nope\n"
    with pytest.raises(JobParseError) as exc:
        parse_job(doc)
    assert exc.value.line == 5


def test_unresolved_submodule_index():
    doc = "[ring]\ncyclic(4)\n\n[modules]\nM = regular\nX = sub(M, S9)\n"
    with pytest.raises(JobParseError):
        parse_job(doc)


def test_syntax_error_has_position():
    doc = "[ring]\ncyclic(4\n"
    with pytest.raises(JobParseError) as exc:
        parse_job(doc)
    assert exc.value.line == 2


def test_unknown_and_duplicate_sections():
    with pytest.raises(JobParseError):
        parse_job("[nonsense]\nx\n")
    with pytest.raises(JobParseError):
        parse_job("[ring]\ncyclic(4)\n[ring]\ncyclic(2)\n")
    with pytest.raises(JobParseError):
        parse_job("cyclic(4)\n")  # content before any header


def test_repo_demo_job_parses_and_verifies():
    import pathlib
    doc = (pathlib.Path(__file__).resolve().parent.parent
           / "demo.job").read_text()
    spec = parse_job(doc)
    report, code = run_job(spec)
    assert code == 0
    verified = [e for e in report["checks"] if e["kind"] == "verify"]
    assert len(verified) == 7
    assert all(e["consistent"] for e in verified)


def test_cap_violation_surfaces():
    doc = "[ring]\nmatrix(cyclic(4),2)\n"
    with pytest.raises(SizeCapExceeded):
        parse_job(doc)


def test_raw_ring_section():
    doc = ("[ring]\nraw\nadd = 0 1 / 1 0\nmul = 0 0 / 0 1\n\n"
           "[modules]\nM = regular\n\n[checks]\nbjkn_prime M\n")
    spec = parse_job(doc)
    assert spec.ring.order == 2
    report, code = run_job(spec)
    assert code == 0
    assert report["checks"][0]["verdict"] is True


def test_raw_module_definition():
    doc = ("[ring]\ncyclic(2)\n\n[modules]\n"
           "X = raw(add = 0 1 / 1 0 ; act = 0 0 / 0 1)\n\n"
           "[checks]\nbjkn_prime X\n")
    spec = parse_job(doc)
    assert spec.modules["X"].order == 2


def test_run_job_report_shape_and_negatives_are_ok():
    spec = parse_job(DEMO)
    report, code = run_job(spec)
    assert code == 0  # negative verdicts are successful runs
    by_check = {e["check"]: e for e in report["checks"]}
    assert by_check["bjkn_prime M"]["verdict"] is False
    assert by_check["bjkn_prime M"]["witness"]["x"] == "2"
    assert by_check["rpid_first M"]["verdict"] is True
    assert by_check["lep"]["count"] == 3
    assert by_check["verify T15"]["consistent"] is True
    assert by_check["evaluate s M"]["carrier"] == ["0", "2"]


def test_run_job_kind_filter():
    spec = parse_job(DEMO)
    report, _ = run_job(spec, kinds=("verify",))
    assert [e["kind"] for e in report["checks"]] == ["verify"]


def test_structured_reports_are_byte_identical():
    spec1 = parse_job(DEMO)
    out1 = render_structured(run_job(spec1)[0])
    spec2 = parse_job(DEMO)
    out2 = render_structured(run_job(spec2)[0])
    assert out1 == out2
    parsed = json.loads(out1)
    assert parsed["schema_version"] == "1"
    assert parsed["engine"]["name"] == "modlab"


def test_render_text_mentions_witnesses():
    spec = parse_job(DEMO)
    text = render_text(run_job(spec)[0], runtime=0.5)
    assert "bjkn_prime M" in text
    assert "runtime:" in text


def test_empty_checks_is_empty_report():
    doc = "[ring]\ncyclic(4)\n"
    spec = parse_job(doc)
    report, code = run_job(spec)
    assert code == 0
    assert report["checks"] == []


# --- the executable front end ------------------------------------------------

def _write(tmp_path, text):
    path = tmp_path / "job.txt"
    path.write_text(text)
    return str(path)


def test_cli_define_ok(tmp_path, capsys):
    assert main(["define", _write(tmp_path, DEMO)]) == 0
    assert "ok:" in capsys.readouterr().out


def test_cli_check_exit_zero_and_output(tmp_path, capsys):
    assert main(["check", _write(tmp_path, DEMO)]) == 0
    out = capsys.readouterr().out
    assert "bjkn_prime M" in out
    assert "verify" not in out  # check skips verification entries


def test_cli_verify_runs_only_theorems(tmp_path, capsys):
    assert main(["verify", _write(tmp_path, DEMO), "--format",
                 "structured"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [e["kind"] for e in data["checks"]] == ["verify"]


def test_cli_flags_override_the_document_universe(tmp_path, capsys):
    # DEMO says depth = 2; explicit flags win, absent ones leave it alone
    assert parse_job(DEMO).universe_depth == 2
    assert main(["check", _write(tmp_path, DEMO), "--format", "structured",
                 "--universe-depth", "1", "--cap-module", "32"]) == 0
    caps = json.loads(capsys.readouterr().out)["caps"]
    assert caps["universe_depth"] == 1
    assert caps["module"] == 32


def test_python_dash_m_runs_from_a_checkout():
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-m", "modlab", "define",
                           "demo.job"], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ok:")


def test_cli_parse_error_exit_one(tmp_path, capsys):
    assert main(["define", _write(tmp_path, "[ring]\ncyclic(\n")]) == 1
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["define", "check", "verify"])
def test_cli_job_file_not_utf8_is_a_parse_error(command, tmp_path, capsys):
    # the decode error once escaped main as a traceback
    path = tmp_path / "job.job"
    path.write_bytes(b"[ring]\ncyclic(4)\n\xff")
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err == (
        "parse error: job file is not UTF-8 text: invalid start byte at "
        "offset 17\n")


def test_cli_cap_error_exit_two(tmp_path, capsys):
    bad = "[ring]\nmatrix(cyclic(3),2)\n"
    assert main(["define", _write(tmp_path, bad)]) == 2


def test_cli_corpus_chain_cap_exit_two(monkeypatch, capsys):
    monkeypatch.setattr(modules, "MAX_HOM_CHAIN", 1)
    assert main(["corpus", "--universe-depth", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("size cap: hom generator chain of width ")
    assert "over a target of order " in err


@pytest.mark.parametrize("job, axiom", [
    ("[ring]\ncyclic(2)\n\n[modules]\n"
     "X = raw(add = 0 1 / 1 0 ; act = 0 0 / 1 1)\n\n[checks]\nbjkn_prime X\n",
     "unit action"),
    ("[ring]\nraw\nadd = 0 1 / 1 0\nmul = 0 0 / 0 0\n\n"
     "[modules]\nM = regular\n", "multiplicative identity"),
])
def test_cli_raw_tables_breaking_an_axiom_exit_engine(job, axiom, tmp_path,
                                                      capsys):
    # raw tables are the only module and ring tables the engine scans
    assert main(["check", _write(tmp_path, job)]) == 3
    assert axiom in capsys.readouterr().err


def test_cli_missing_file_exit_engine(tmp_path, capsys):
    assert main(["define", str(tmp_path / "absent.job")]) == 3


@pytest.mark.parametrize("argv", [
    ["corpus", "--universe-depth", "0"],
    ["corpus", "--universe-depth", "-1"],
    ["corpus", "--actions", "-3"],
    ["check", "JOB", "--universe-depth", "0"],
    # each command takes only the flags it reads
    ["define", "JOB", "--format", "structured"],
    ["define", "JOB", "--seed", "1"],
    ["check", "JOB", "--seed", "1"],
    ["verify", "JOB", "--seed", "1"],
    # a module cap below 1 fits no direct sum
    ["corpus", "--cap-module", "0"],
    ["corpus", "--cap-module", "-5"],
    ["verify", "JOB", "--cap-module", "0"],
    # a ring cap below 1 fits no ring
    ["corpus", "--cap-ring", "0"],
    ["corpus", "--cap-ring", "-3"],
])
def test_cli_usage_error_before_any_work(argv, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "parse_job", refuse)
    monkeypatch.setattr(cli, "generate_universe", refuse)
    argv = [_write(tmp_path, DEMO) if a == "JOB" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: " in capsys.readouterr().err


def test_cli_corpus_smoke(capsys):
    assert main(["corpus", "--actions", "5", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "corpus sweep" in out
    assert "all consistent" in out
    assert "failures: 0" in out


def test_cli_corpus_structured(capsys):
    assert main(["corpus", "--format", "structured"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["rings"]) == 6
    assert data["inconsistencies"] == []


def test_cli_corpus_reports_converse_gaps(capsys):
    # a finite diuniform-but-not-BJKN witness exists in the corpus; a
    # prime-but-not-BJKN one does not at these caps and must say so
    assert main(["corpus", "--format", "structured"]) == 0
    data = json.loads(capsys.readouterr().out)
    gaps = data["gap_witnesses"]
    assert "cyclic(4)" in gaps["diuniform_not_bjkn_prime"]
    assert gaps["prime_not_bjkn_prime"] == "not witnessed at these caps"


def test_corpus_bjkn_prime_module_failing_a_notion_is_inconsistent(
        monkeypatch, capsys):
    # regular Z2 is BJKN-prime; a primeness decider that says no on it
    # makes firstness_report raise, and the sweep marks the entry
    detail = firstness.prime_module_detail
    monkeypatch.setattr(
        firstness, "prime_module_detail",
        lambda m: (False, None) if m.order == m.ring.order == 2 else detail(m))
    assert main(["corpus", "--format", "structured"]) == 4
    data = json.loads(capsys.readouterr().out)
    z2 = data["rings"][0]
    assert z2["ring"] == "cyclic(2)"
    assert z2["modules"][0]["status"] == "inconsistent"
    assert z2["modules"][0]["error"] == "bjkn-prime module fails prime"
    assert "bjkn-prime module fails prime" in data["inconsistencies"]


def test_corpus_frees_each_ring_before_the_next(monkeypatch, capsys):
    # each ring's block holds the ring and its universe; once the block
    # is done nothing else does, so a collection frees them before the
    # next ring's universe is built, with no collection in the sweep
    refs, alive = [], []
    generate = cli.generate_universe

    def collect_then_generate(ring, **kwargs):
        gc.collect()
        alive.append([ref() is not None for ref in refs])
        refs.append(weakref.ref(ring))
        return generate(ring, **kwargs)

    monkeypatch.setattr(cli, "generate_universe", collect_then_generate)
    assert main(["corpus", "--universe-depth", "1"]) == 0
    capsys.readouterr()
    assert alive == [[False] * k for k in range(6)]


def test_corpus_computes_each_fact_once(monkeypatch, capsys):
    # one classification per ring, one decision per (module, notion):
    # the theorem sides read both from the caches
    counts = {}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(classify, "_classify",
                        counting("classify", classify._classify))
    for name in ("bjkn_prime_detail", "prime_module_detail"):
        original = getattr(firstness, name)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "modlab" and \
                    getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting(name, original))
    assert main(["corpus", "--format", "structured"]) == 0
    modules = sum(len(block["modules"])
                  for block in json.loads(capsys.readouterr().out)["rings"])
    assert modules == 35
    assert counts == {"classify": 6, "bjkn_prime_detail": 35,
                      "prime_module_detail": 35}


def test_corpus_command_frees_its_rings_and_modules(capsys):
    # rings and modules refer to each other in cycles; with automatic
    # collection off, only the command's own exit path can free them
    def live():
        return [o for o in gc.get_objects()
                if isinstance(o, (FiniteRing, FiniteModule))]

    gc.collect()
    gc.disable()
    try:
        before = live()  # held, so no new object can reuse one of their ids
        assert main(["corpus", "--actions", "2"]) == 0
        old = set(map(id, before))
        left = [o for o in live() if id(o) not in old]
    finally:
        gc.enable()
    capsys.readouterr()
    assert left == []


def test_a_command_leaves_no_cyclic_garbage(capsys):
    # the command collects after its handler returns and holds nothing
    # cyclic past that point (the parser is built once, not per call), so
    # with automatic collection off a collection right after finds nothing.
    # Building the parser leaves garbage that predates the command, once
    # per process, so a first call builds it
    main(["corpus", "--actions", "2"])
    gc.collect()
    gc.disable()
    try:
        assert main(["corpus", "--actions", "2"]) == 0
        unreachable = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    assert unreachable == 0


@pytest.mark.parametrize("code, argv", [
    (0, ["corpus", "--universe-depth", "1"]),
    (1, ["define", "[ring]\ncyclic(\n"]),  # a parse error
    (2, ["check", DEMO, "--cap-module", "4"]),  # D has order 8
], ids=["ok", "parse-error", "size-cap"])
def test_main_leaves_the_freeze_state_as_it_found_it(code, argv, tmp_path,
                                                     capsys):
    # main freezes what predates the command and unfreezes it on the way
    # out, on every exit path; objects the caller froze stay frozen
    if argv[0] != "corpus":
        argv = [argv[0], _write(tmp_path, argv[1])] + argv[2:]
    assert gc.get_freeze_count() == 0
    assert main(argv) == code
    assert gc.get_freeze_count() == 0

    held = []
    held.append(held)  # a cycle the collector tracks
    gc.freeze()
    try:
        assert main(argv) == code
        assert gc.get_freeze_count() > 0
        assert not any(o is held for o in gc.get_objects())
    finally:
        gc.unfreeze()
    assert any(o is held for o in gc.get_objects())
    capsys.readouterr()


def test_corpus_collects_each_ring_before_the_next(monkeypatch, capsys):
    # the sweep itself frees every earlier ring before the next universe
    # is generated: automatic collection is off and the test collects
    # nothing, so only the sweep's own collections can free them
    refs, alive = [], []
    generate = cli.generate_universe

    def check_then_generate(ring, **kwargs):
        alive.append([ref() is not None for ref in refs])
        refs.append(weakref.ref(ring))
        return generate(ring, **kwargs)

    monkeypatch.setattr(cli, "generate_universe", check_then_generate)
    gc.collect()
    gc.disable()
    try:
        assert main(["corpus", "--universe-depth", "1"]) == 0
    finally:
        gc.enable()
    capsys.readouterr()
    assert alive == [[False] * k for k in range(6)]
