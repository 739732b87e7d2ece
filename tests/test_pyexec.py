import hashlib
import importlib.util
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

import pytest

from bridge import pyexec
from bridge.corpus import Problem, UnitTest
from bridge.errors import MutantError, SandboxError
from bridge.gateway import CompletionRecord, prompt_digest
from bridge.lean import LeanVerifier
from bridge.pipeline import Orchestrator, RunConfig
from bridge.sandbox_server import (
    DESCRIPTOR_CAP,
    FILE_CAP,
    MutantBuildError,
    build_mutants,
    fingerprint,
)
from conftest import write_corpus


def make_problem(fn, params, ret, cases, order_insensitive=False):
    tests = tuple(
        UnitTest(inputs=tuple(i), expected=e, order_insensitive=order_insensitive)
        for i, e in cases
    )
    return Problem(
        id="inline-test",
        title="Inline",
        statement="inline fixture",
        function_name=fn,
        params=tuple(params),
        return_type=ret,
        tests=tests,
        category="arrays",
    )


ADD = make_problem(
    "addInts", [("a", "Int"), ("b", "Int")], "Int",
    [(["1", "2"], "3"), (["5", "5"], "10"), (["-4", "4"], "0")],
)

GOOD_ADD = "def addInts(a, b):\n    return a + b\n"

# the records of a full pass on ADD, as the sandbox server writes them
PASSING_ADD = [
    {"index": i, "repr": repr(value), "fingerprint": fingerprint(value)}
    for i, value in enumerate((3, 10, 0))
]


def relayed(monkeypatch, records):
    """Answer every check, and each mutant of a vacuity check, with `records`
    and a clean exit, with no server.

    Returns the list that the requests are appended to.
    """
    sent = []

    def run(request):
        sent.append(request)
        names = [None]
        if request["mutants"]:
            names = [name for name, _ in build_mutants(
                request["source"], request["function_name"])]
        return names, [(records, 0, False)] * len(names)

    monkeypatch.setattr(pyexec._POOL, "run", run)
    return sent


def bare_request():
    """A check in the server's shape that calls nothing."""
    return {"source": "", "function_name": "f", "inputs": [], "timeout": 1.0,
            "workdirs": [os.getcwd()], "start": 0, "id": os.urandom(16).hex(),
            "mutants": False}


@pytest.fixture
def started(monkeypatch):
    """The sandbox servers started from here on; none is idle at the start."""
    servers = []

    class Counted(pyexec._Server):
        def __init__(self):
            servers.append(self)
            super().__init__()

    pyexec.shutdown()
    monkeypatch.setattr(pyexec, "_Server", Counted)
    return servers


def run_bare(server):
    """The results `server` relays for a bare request, and the names it gives."""
    results = []
    names = server.run(bare_request(), results)
    return names, results


class TestRunTests:
    def test_all_pass(self):
        outcome = pyexec.run_tests(GOOD_ADD, ADD)
        assert outcome.all_passed
        assert (outcome.total, outcome.passed, outcome.fault) == (3, 3, None)

    def test_mismatch_records_observed_and_expected(self):
        outcome = pyexec.run_tests("def addInts(a, b):\n    return a + b + 1\n", ADD)
        assert not outcome.all_passed
        assert outcome.passed == 0 and outcome.fault is None
        first = outcome.failures[0]
        assert first["reason"] == "mismatch"
        # values travel back JSON-encoded so records stay serializable
        assert first["observed"] == "4" and first["expected"] == "3"

    def test_exception_is_runtime_fault(self):
        src = (
            "def addInts(a, b):\n"
            "    if a < 0:\n"
            "        raise ValueError('no negatives')\n"
            "    return a + b\n"
        )
        outcome = pyexec.run_tests(src, ADD)
        assert outcome.fault == "RuntimeError"
        assert outcome.passed == 2
        reasons = {f["reason"] for f in outcome.failures}
        assert reasons == {"exception"}

    def test_import_crash(self):
        outcome = pyexec.run_tests("raise RuntimeError('boom')\n", ADD)
        assert outcome.fault == "Crash"
        assert outcome.passed == 0
        assert all(f["reason"] == "crash" for f in outcome.failures)

    def test_syntax_error_is_crash(self):
        outcome = pyexec.run_tests("def addInts(a, b)\n    return a + b\n", ADD)
        assert outcome.fault == "Crash"

    def test_missing_function_is_crash(self):
        outcome = pyexec.run_tests("def otherName(a, b):\n    return a + b\n", ADD)
        assert outcome.fault == "Crash"

    def test_timeout(self):
        src = (
            "def addInts(a, b):\n"
            "    while True:\n"
            "        pass\n"
        )
        outcome = pyexec.run_tests(src, ADD, timeout=1.0)
        assert outcome.fault == "Timeout"
        assert not outcome.all_passed

    def test_bool_is_not_int(self):
        # True == 1 in Python; structural comparison must still reject it
        outcome = pyexec.run_tests(
            "def addInts(a, b):\n    return True if a + b == 1 else a + b\n",
            make_problem("addInts", [("a", "Int"), ("b", "Int")], "Int",
                         [(["0", "1"], "1")]),
        )
        assert outcome.passed == 0
        assert outcome.failures[0]["reason"] == "mismatch"

    def test_order_insensitive_comparison(self):
        problem_strict = make_problem(
            "listDouble", [("nums", "List Int")], "List Int",
            [(["[1,2,3]"], "[2,4,6]")],
        )
        problem_loose = make_problem(
            "listDouble", [("nums", "List Int")], "List Int",
            [(["[1,2,3]"], "[2,4,6]")], order_insensitive=True,
        )
        reversed_src = "def listDouble(nums):\n    return [2 * n for n in reversed(nums)]\n"
        assert not pyexec.run_tests(reversed_src, problem_strict).all_passed
        assert pyexec.run_tests(reversed_src, problem_loose).all_passed

    def test_large_wrong_answer_is_a_clipped_mismatch(self):
        # about 2 MB of repr: clipped in the record, so it never trips the
        # output cap and stays a mismatch rather than a crash
        src = "def addInts(a, b):\n    return list(range(300000))\n"
        outcome = pyexec.run_tests(src, ADD, timeout=10.0)
        assert outcome.fault is None and outcome.passed == 0
        observed = outcome.failures[0]["observed"]
        assert observed.startswith("[0, 1, 2") and observed.endswith("...")
        assert len(observed) == 1003

    def test_record_that_is_not_an_object_is_ignored(self):
        src = (
            "print('##REC## 5')\n"
            "print('##REC## [1]')\n"
            "def addInts(a, b):\n"
            "    return a + b\n"
        )
        assert pyexec.run_tests(src, ADD).all_passed

    def test_to_obj_shape(self):
        obj = pyexec.run_tests(GOOD_ADD, ADD).to_obj()
        assert obj == {
            "type": "python",
            "total": 3,
            "passed": 3,
            "failures": [],
            "fault": None,
        }


class TestSandbox:
    def test_write_outside_workdir_blocked(self, tmp_path):
        probe = tmp_path / "escape-probe.txt"
        src = (
            "def addInts(a, b):\n"
            f"    with open({str(probe)!r}, 'w') as fh:\n"
            "        fh.write('leak')\n"
            "    return a + b\n"
        )
        outcome = pyexec.run_tests(src, ADD)
        assert outcome.fault == "RuntimeError"
        assert not probe.exists()

    def test_write_inside_workdir_allowed(self):
        src = (
            "def addInts(a, b):\n"
            "    with open('scratch.txt', 'w') as fh:\n"
            "        fh.write('ok')\n"
            "    return a + b\n"
        )
        assert pyexec.run_tests(src, ADD).all_passed

    @pytest.mark.parametrize("call, error", [
        # the kernel writes up to the cap; the last byte, written on close, fails
        (f"fh = open('big', 'wb'); fh.write(b'x' * {FILE_CAP + 1}); fh.close()",
         "File too large"),
        (f"[open(os.devnull) for _ in range({DESCRIPTOR_CAP + 10})]", "Too many open files"),
    ], ids=["file-size", "descriptors"])
    def test_past_a_resource_cap_is_an_exception(self, call, error):
        src = f"import os\ndef addInts(a, b):\n    {call}\n    return a + b\n"
        [(name, records, fault)] = pyexec._execute(src, "addInts", [[1, 2]],
                                                   timeout=10.0)
        assert name is None
        assert fault is None
        assert records[0]["kind"] == "fault" and error in records[0]["error"]

    def test_delete_outside_workdir_blocked(self, tmp_path):
        victim = tmp_path / "victim.txt"
        victim.write_text("keep me", encoding="utf-8")
        src = (
            "import os\n"
            "def addInts(a, b):\n"
            f"    os.remove({str(victim)!r})\n"
            "    return a + b\n"
        )
        outcome = pyexec.run_tests(src, ADD)
        assert outcome.fault == "RuntimeError"
        assert victim.read_text(encoding="utf-8") == "keep me"

    def test_sibling_of_workdir_is_outside(self, tmp_path, monkeypatch):
        # /tmp/bridge-py-abcX shares the workdir's prefix but is not inside it
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        src = (
            "import os\n"
            "def addInts(a, b):\n"
            "    sibling = os.getcwd() + 'X'\n"
            "    os.makedirs(sibling, exist_ok=True)\n"
            "    with open(os.path.join(sibling, 'out.txt'), 'w') as fh:\n"
            "        fh.write('leak')\n"
            "    return a + b\n"
        )
        try:
            outcome = pyexec.run_tests(src, ADD)
            assert outcome.fault == "RuntimeError"
            assert all("write blocked" in f["error"] for f in outcome.failures)
        finally:
            siblings = list(tmp_path.glob("bridge-py-*X"))
            for sibling in siblings:
                shutil.rmtree(sibling)
        assert len(siblings) == 0

    def test_os_open_for_writing_is_blocked(self, tmp_path, monkeypatch):
        # os.open reports flags and no mode string to the audit hook
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        src = (
            "import os\n"
            "def addInts(a, b):\n"
            "    os.close(os.open(os.getcwd() + '-leak.txt', os.O_WRONLY | os.O_CREAT))\n"
            "    return a + b\n"
        )
        outcome = pyexec.run_tests(src, ADD)
        assert outcome.fault == "RuntimeError"
        assert all("write blocked" in f["error"] for f in outcome.failures)
        assert list(tmp_path.glob("*-leak.txt")) == []

    @pytest.mark.parametrize("attack", [
        "open('f', 'w').close()\n    os.rename('f', OUT + '/moved')",
        "open('f', 'w').close()\n    os.replace('f', OUT + '/moved')",
        "d = os.open(OUT, os.O_RDONLY)\n"
        "    os.close(os.open('x', os.O_WRONLY | os.O_CREAT, dir_fd=d))",
        "os.link(VICTIM, 'h')\n    open('h', 'w').write('leak')",
        "os.symlink('anything', OUT + '/link')",
        "os.mkdir(OUT + '/made')",
        "os.rmdir(OUT + '/empty')",
        "os.chmod(VICTIM, 0o777)",
        "os.fchmod(os.open(VICTIM, os.O_RDONLY), 0o777)",
        "os.chown(VICTIM, os.getuid(), os.getgid())",
        "os.utime(VICTIM, (0, 0))",
        "os.truncate(VICTIM, 0)",
        "open(VICTIM.encode(), 'w').write('leak')",
        "os.symlink('../x', 'l')",
    ], ids=["rename", "replace", "dir-fd", "link", "symlink", "mkdir", "rmdir",
            "chmod", "fchmod", "chown", "utime", "truncate", "bytes-path",
            "relative-symlink"])
    def test_change_outside_workdir_blocked(self, tmp_path, attack):
        victim = tmp_path / "victim.txt"
        victim.write_text("keep me", encoding="utf-8")
        victim.chmod(0o644)
        (tmp_path / "empty").mkdir()

        def snapshot():
            return sorted(
                (p.name, p.stat().st_mode, p.stat().st_nlink, p.stat().st_mtime_ns,
                 p.read_bytes() if p.is_file() else None)
                for p in tmp_path.iterdir())

        before = snapshot()
        src = (
            "import os\n"
            f"OUT = {str(tmp_path)!r}\n"
            f"VICTIM = {str(victim)!r}\n"
            "def addInts(a, b):\n"
            f"    {attack}\n"
            "    return a + b\n"
        )
        outcome = pyexec.run_tests(src, ADD)
        assert outcome.fault == "RuntimeError"
        assert all("write blocked" in f["error"] for f in outcome.failures)
        assert snapshot() == before

    def test_relative_symlink_read_from_link_directory(self):
        # the kernel reads "../x" from a/b, so the link points at a/x, inside
        src = (
            "import os\n"
            "def addInts(a, b):\n"
            "    os.makedirs('a/b', exist_ok=True)\n"
            "    if not os.path.lexists('a/b/link'):\n"
            "        os.symlink('../x', 'a/b/link')\n"
            "    return a + b\n"
        )
        outcome = pyexec.run_tests(src, ADD)
        assert outcome.all_passed, outcome

    @pytest.mark.parametrize("leftover", [
        "",
        "    open('scratch.txt', 'w').close()\n",
        "    os.makedirs('a/b', exist_ok=True)\n"
        "    open('a/b/scratch.txt', 'w').close()\n",
    ], ids=["empty", "one-file", "nested"])
    def test_work_directory_removed(self, tmp_path, monkeypatch, leftover):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        src = "import os\ndef addInts(a, b):\n" + leftover + "    return a + b\n"
        assert pyexec.run_tests(src, ADD).all_passed
        assert list(tmp_path.glob("bridge-py-*")) == []

    def test_environment_scrubbed(self, monkeypatch):
        monkeypatch.setenv("BRIDGE_SECRET_TOKEN", "hunter2")
        src = (
            "import os\n"
            "def addInts(a, b):\n"
            "    assert 'BRIDGE_SECRET_TOKEN' not in os.environ\n"
            "    return a + b\n"
        )
        assert pyexec.run_tests(src, ADD).all_passed


def processes_with(arg):
    """Pids whose command line has `arg` as one of its arguments."""
    found = []
    for path in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            if arg.encode() in path.read_bytes().split(b"\0"):
                found.append(int(path.parent.name))
        except OSError:
            continue
    return found


def survivors(arg):
    """`processes_with(arg)` once kills and execs in flight have settled.

    A process that is still inside exec shows an empty command line, so an
    immediate scan can miss a survivor.
    """
    time.sleep(0.5)
    return processes_with(arg)


def children():
    """Pids of this process's children, zombies included."""
    me = str(os.getpid())
    found = []
    for path in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = path.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            found.append(int(path.parent.name))
    return found


class TestSandboxServer:
    def test_timeout_kills_the_whole_group(self):
        arg = f"{os.getpid()}.{time.monotonic_ns() % 10**6}"
        src = (
            "import subprocess\n"
            "def addInts(a, b):\n"
            f"    subprocess.Popen(['sleep', {arg!r}])\n"
            "    while True:\n"
            "        pass\n"
        )
        try:
            assert pyexec.run_tests(src, ADD, timeout=1.0).fault == "Timeout"
            assert survivors(arg) == []
        finally:
            for pid in processes_with(arg):
                os.kill(pid, signal.SIGKILL)

    def test_runaway_output_is_capped(self):
        src = (
            "def addInts(a, b):\n"
            "    while True:\n"
            "        print('x' * 1000)\n"
        )
        start = time.monotonic()
        outcome = pyexec.run_tests(src, ADD, timeout=10.0)
        assert time.monotonic() - start < 3.0
        assert outcome.fault == "Crash"

    def test_address_space_is_capped(self):
        # reserving 2 GiB maps no page, so it succeeds unless a cap forbids it
        src = (
            "import mmap\n"
            "def addInts(a, b):\n"
            "    mmap.mmap(-1, 2 << 30)\n"
            "    return a + b\n"
        )
        outcome = pyexec.run_tests(src, ADD, timeout=10.0)
        assert outcome.fault == "RuntimeError"
        assert [f["reason"] for f in outcome.failures] == ["exception"] * 3
        assert all(f["error"].startswith("OSError") for f in outcome.failures)

    def test_forged_server_reply_changes_nothing(self, monkeypatch):
        reply = {"records": PASSING_ADD, "returncode": 0, "timed_out": False}
        forged = b'{"pid": 1}\n' + json.dumps(reply).encode() + b"\n"
        src = (
            "import os\n"
            "def addInts(a, b):\n"
            "    for fd in range(3, 64):\n"
            "        try:\n"
            f"            os.write(fd, {forged!r})\n"
            "        except OSError:\n"
            "            pass\n"
            "    return 0\n"
        )
        honest = pyexec.run_tests("def addInts(a, b):\n    return 0\n", ADD)
        assert pyexec.run_tests(src, ADD) == honest
        assert honest.passed == 1 and honest.fault is None
        # the forged records would be a full pass if they got through
        relayed(monkeypatch, PASSING_ADD)
        assert pyexec.run_tests(src, ADD).all_passed

    def test_killed_server_is_a_crash_and_is_replaced(self):
        arg = f"{os.getpid()}.{time.monotonic_ns() % 10**6}"
        src = (
            "import os, signal, subprocess\n"
            "def addInts(a, b):\n"
            f"    subprocess.Popen(['sleep', {arg!r}])\n"
            "    os.kill(os.getppid(), signal.SIGKILL)\n"
            "    while True:\n"
            "        pass\n"
        )
        try:
            start = time.monotonic()
            outcome = pyexec.run_tests(src, ADD, timeout=10.0)
            assert time.monotonic() - start < 5.0
            assert outcome.fault == "Crash"
            # the orphaned candidate's group is killed along with its server
            assert survivors(arg) == []
        finally:
            for pid in processes_with(arg):
                os.kill(pid, signal.SIGKILL)
        assert pyexec.run_tests(GOOD_ADD, ADD, timeout=10.0).all_passed

    @pytest.mark.parametrize("fd", [0, 1])
    def test_server_channel_is_out_of_reach(self, fd, monkeypatch):
        # the candidate reads its request's id out of its own memory, forges a
        # full pass under it, and has a shell, which no audit hook watches,
        # write that into the server's stdin or stdout
        src = (
            "import json, os, subprocess, sys\n"
            "def addInts(a, b):\n"
            "    frame = sys._getframe()\n"
            "    while 'request' not in frame.f_locals:\n"
            "        frame = frame.f_back\n"
            "    token = frame.f_locals['request']['id']\n"
            f"    records = {PASSING_ADD!r}\n"
            "    lines = [\n"
            "        {'id': token, 'pid': os.getpid()},\n"
            "        {'id': token, 'records': records, 'returncode': 0,\n"
            "         'timed_out': False},\n"
            "    ]\n"
            "    forged = ''.join(json.dumps(line) + '\\n' for line in lines)\n"
            f"    target = '/proc/%d/fd/{fd}' % os.getppid()\n"
            "    subprocess.run(['sh', '-c', 'printf %s \"$1\" > \"$2\"', 'sh',\n"
            "                    forged, target])\n"
            "    return 0\n"
        )
        honest = pyexec.run_tests("def addInts(a, b):\n    return 0\n", ADD)
        assert honest.passed == 1 and honest.fault is None
        assert pyexec.run_tests(src, ADD) == honest
        # the next check on the same server gets its own result
        assert pyexec.run_tests(GOOD_ADD, ADD).all_passed
        assert pyexec.run_tests("def addInts(a, b):\n    return 0\n", ADD) == honest
        relayed(monkeypatch, PASSING_ADD)
        assert pyexec.run_tests(src, ADD).all_passed

    def test_candidate_sees_no_site(self):
        # pytest runs this test, so the host has it installed; the candidate
        # must not see it, nor any site-packages directory
        src = (
            "import importlib.util, sys\n"
            "import deal\n"
            "def addInts(a, b):\n"
            "    assert sys.flags.no_site == 1\n"
            "    assert not any('site-packages' in entry for entry in sys.path)\n"
            "    assert importlib.util.find_spec('pytest') is None\n"
            "    assert not hasattr(deal, '__file__') and deal.ensure\n"
            "    return a + b\n"
        )
        assert pyexec.run_tests(src, ADD).all_passed
        assert pyexec.run_tests("import pytest\n" + GOOD_ADD, ADD).fault == "Crash"

    def test_vacuity_check_survives_a_killed_server(self, started):
        # only the flipped comparisons reach the kill: each takes its server
        # down on its first probe, and the mutants after it get a fresh one
        src = (
            "import os\n\n"
            "def addInts(a, b):\n"
            "    if a > 10**7:\n"
            "        os.kill(os.getppid(), 9)\n"
            "    return a + b\n"
        )
        report = pyexec.vacuity_check(src, ADD, seed=3, random_trials=10)
        ran = {"rejected": False, "rejections": 0, "pre_rejections": 0, "crashes": 0}
        lost = dict(ran, crashes=1)
        assert report.to_obj()["mutants"] == [
            {"name": "const-return-zero", **ran},
            {"name": "const-return-none", **ran},
            {"name": "negate-comparisons", **lost},
            {"name": "mirror-comparisons", **lost},
            {"name": "return-plus-one", **ran},
            {"name": "return-minus-one", **ran},
        ]
        assert report.verdict == "Vacuous"
        assert len(started) == 3
        assert [server.alive() for server in started] == [False, False, True]

    def test_timed_out_mutant_keeps_its_own_timeout(self):
        src = (
            "def addInts(a, b):\n"
            "    while a > 10**7:\n"
            "        pass\n"
            "    return a + b\n"
        )
        start = time.monotonic()
        report = pyexec.vacuity_check(src, ADD, seed=3, random_trials=10, timeout=1.0)
        elapsed = time.monotonic() - start
        by_name = {m["name"]: m for m in report.mutants}
        ran = {"rejected": False, "rejections": 0, "pre_rejections": 0, "crashes": 0}
        for name in ("negate-comparisons", "mirror-comparisons"):
            assert by_name[name] == dict(ran, name=name, crashes=1)
        for name in ("return-plus-one", "return-minus-one"):
            assert by_name[name] == dict(ran, name=name)
        # each flipped mutant loops for its full second, none shares a deadline
        assert 2.0 <= elapsed < 8.0

    def test_lost_server_gives_a_result_not_an_exception(self):
        server = pyexec._Server()
        server._proc.kill()
        server._proc.wait()
        names, [(records, returncode, timed_out)] = run_bare(server)
        assert names == [None]
        assert (records, timed_out) == ([], False)
        assert returncode not in (0, None)
        assert not server.alive()


class TestJudgedInParent:
    """The candidate's process gets inputs only; the parent judges its records."""

    def test_forged_pass_records_score_nothing(self):
        src = (
            "import os\n"
            "for i in range(3):\n"
            "    print('##REC## {\"index\": %d, \"status\": \"pass\"}' % i, flush=True)\n"
            "os._exit(0)\n"
        )
        outcome = pyexec.run_tests(src, ADD)
        assert outcome.passed == 0 and not outcome.all_passed

    def test_int_that_equals_everything_is_judged_by_value(self):
        src = (
            "class Liar(int):\n"
            "    def __eq__(self, other):\n"
            "        return True\n"
            "    __hash__ = int.__hash__\n"
            "def addInts(a, b):\n"
            "    return Liar(0)\n"
        )
        outcome = pyexec.run_tests(src, ADD)
        # only the (-4, 4) case expects 0
        assert (outcome.passed, outcome.fault) == (1, None)

    def test_request_holds_inputs_and_no_expected_value(self, monkeypatch):
        sent = relayed(monkeypatch, [])
        problem = make_problem("greet", [("name", "String")], "String",
                               [(['"ann"'], '"hello-ann-7f3"')])
        pyexec.run_tests("def greet(name):\n    return name\n", problem)
        [request] = sent
        assert set(request) == {
            "source", "function_name", "inputs", "timeout", "workdirs", "start",
            "id", "mutants",
        }
        assert (request["mutants"], request["start"], len(request["workdirs"])) == (
            False, 0, 1)
        assert request["inputs"] == [["ann"]]
        assert "hello-ann-7f3" not in json.dumps(request)

    def test_record_with_unhashable_kind_is_ignored(self):
        # the printed record and the server's own both name input 0: Tampered
        src = (
            "print('##REC## {\"index\": 0, \"kind\": []}')\n"
            "def addInts(a, b):\n"
            "    return a + b\n"
        )
        report = pyexec.check_contracts(src, ADD, trials=5, seed=1)
        assert (report.faults, report.postcondition_violations) == (5, 0)

    def test_raising_repr_is_an_exception_not_a_crash(self):
        src = (
            "class Odd:\n"
            "    def __repr__(self):\n"
            "        raise ValueError('no repr')\n"
            "def addInts(a, b):\n"
            "    return Odd()\n"
        )
        outcome = pyexec.run_tests(src, ADD)
        assert outcome.fault == "RuntimeError"
        assert [f["reason"] for f in outcome.failures] == ["exception"] * 3
        assert outcome.failures[0]["error"] == "ValueError: no repr"

    def test_value_outside_the_grammar_never_equals(self):
        # a tuple has the items of the expected list, but is no literal
        problem = make_problem("pair", [("n", "Int")], "List Int", [(["1"], "[1,1]")],
                               order_insensitive=True)
        outcome = pyexec.run_tests("def pair(n):\n    return (n, n)\n", problem)
        assert outcome.passed == 0
        assert outcome.failures[0]["reason"] == "mismatch"


# a spec with no contracts that prints a postcondition record naming no input
FORGED_POST_ADD = (
    "def addInts(a, b):\n"
    "    print('##REC## {\"kind\": \"post\", \"error\": \"x\"}', flush=True)\n"
    "    return a + b\n"
)


class TestOneRecordPerInput:
    """Tests, contract probes and vacuity mutants count each input's record."""

    def test_record_naming_no_input_counts_for_nothing(self):
        assert pyexec.run_tests(FORGED_POST_ADD, ADD).all_passed
        report = pyexec.check_contracts(FORGED_POST_ADD, ADD, trials=10)
        assert report.postcondition_violations == 0
        vacuity = pyexec.vacuity_check(FORGED_POST_ADD, ADD, seed=3, random_trials=10)
        assert (vacuity.verdict, vacuity.mutants_rejected) == ("Vacuous", 0)

    def test_late_record_with_unhashable_kind_counts_for_nothing(self, monkeypatch):
        # ADD's three passes, a postcondition record for each later input up
        # to 12, then input 3's record again with a kind that is no string:
        # a second record for input 3 is Tampered wherever input 3 exists
        posts = [{"index": i, "kind": "post", "error": "x"} for i in range(3, 13)]
        relayed(monkeypatch, PASSING_ADD + posts + [{"index": 3, "kind": []}])
        report = pyexec.check_contracts(GOOD_ADD, ADD, trials=10, seed=1)
        assert (report.precondition_rejections, report.postcondition_violations,
                report.invariant_violations, report.faults) == (0, 0, 0, 10)
        # the reference's 3 tests name no input 3, so it passes; every mutant
        # probes 13 inputs, is Tampered, and is rejected by nothing
        vacuity = pyexec.vacuity_check(GOOD_ADD, ADD, seed=3, random_trials=10)
        assert (vacuity.verdict, vacuity.mutants_rejected) == ("Vacuous", 0)
        assert {(m["rejections"], m["crashes"]) for m in vacuity.mutants} == {(0, 1)}

    def test_roadmap_item_1_late_forged_record_is_refused(self):
        forged = "##REC## " + json.dumps(
            {"index": 0, "repr": "3", "fingerprint": fingerprint(3)})
        src = (
            "calls = []\n"
            "def addInts(a, b):\n"
            "    calls.append(a)\n"
            "    if len(calls) == 2:\n"
            f"        print({forged!r}, flush=True)\n"
            "    return 0 if len(calls) == 1 else a + b\n"
        )
        outcome = pyexec.run_tests(src, ADD)
        assert (outcome.passed, outcome.fault) == (0, "Tampered")
        assert [f["reason"] for f in outcome.failures] == ["not run"] * 3


class TestReferenceBank:
    def test_python_references_pass_and_wrong_variants_fail(self, corpus):
        """tools/make_fixtures.py's check: every PY_GOOD reference passes its
        corpus tests, and ywrong1 and ywrong2 each fail one."""
        path = Path(__file__).resolve().parent.parent / "tools" / "make_fixtures.py"
        spec = importlib.util.spec_from_file_location("make_fixtures", path)
        make_fixtures = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(make_fixtures)
        assert sorted(make_fixtures.PY_GOOD) == sorted(p.id for p in corpus)
        make_fixtures.check_python_bank(corpus)


@pytest.fixture
def server_command(monkeypatch):
    """Point BRIDGE_PYTHON_CMD at another server, with no idle server left over."""

    def use(command):
        pyexec.shutdown()
        monkeypatch.setenv("BRIDGE_PYTHON_CMD", command)

    yield use
    pyexec.shutdown()


# Starts the real server with os.pidfd_open failing, as on a kernel or under a
# seccomp filter without pidfds.
NO_PIDFD_SERVER = """
import os, sys

def pidfd_open(pid, flags=0):
    raise PermissionError(1, "Operation not permitted")

os.pidfd_open = pidfd_open
exec(sys.argv[-1], {"__name__": "__main__"})
"""

# Starts the real server under a hard address-space limit below MEMORY_CAP.
LOW_LIMIT_SERVER = """
import resource, sys

resource.setrlimit(resource.RLIMIT_AS, (768 << 20, 768 << 20))
exec(sys.argv[-1], {"__name__": "__main__"})
"""

# Starts like the real server, then answers the first request with the
# malformed reply named by its first argument.
MALFORMED_SERVER = """
import json, os, sys

print(json.dumps({"ready": True}), flush=True)
request = json.loads(sys.stdin.readline())
good = {"id": request["id"], "records": [], "returncode": 0, "timed_out": False}
started = {"id": request["id"], "pid": os.getpid()}
replies = {
    "wrong-id": dict(good, id="0" * 32),
    "no-records": {"id": request["id"], "returncode": 0, "timed_out": False},
    "string-returncode": dict(good, returncode="0"),
    "record-not-object": dict(good, records=[5]),
    "not-an-object": [good],
    "pid-one": good,
}
if sys.argv[1] == "pid-one":
    started["pid"] = 1
print(json.dumps(started))
print(json.dumps(replies[sys.argv[1]]), flush=True)
sys.stdin.readline()
"""


class TestServerProtocol:
    def test_server_without_pidfds_fails_loudly(self, tmp_path, server_command):
        script = tmp_path / "server.py"
        script.write_text(NO_PIDFD_SERVER, encoding="utf-8")
        server_command(f"{sys.executable} {script}")
        with pytest.raises(SandboxError, match="pidfd_open: PermissionError"):
            pyexec.run_tests(GOOD_ADD, ADD)

    def test_lower_host_memory_limit_is_kept(self, tmp_path, server_command):
        script = tmp_path / "server.py"
        script.write_text(LOW_LIMIT_SERVER, encoding="utf-8")
        server_command(f"{sys.executable} {script}")
        assert pyexec.run_tests(GOOD_ADD, ADD).all_passed
        src = (
            "import mmap\n"
            "def addInts(a, b):\n"
            "    mmap.mmap(-1, 900 << 20)\n"
            "    return a + b\n"
        )
        assert pyexec.run_tests(src, ADD).fault == "RuntimeError"

    def test_server_that_exits_at_once_fails_loudly(self, server_command):
        server_command(f"{sys.executable} -c pass")
        with pytest.raises(SandboxError, match="no ready line"):
            pyexec.run_tests(GOOD_ADD, ADD)

    @pytest.mark.parametrize("case", [
        "wrong-id", "no-records", "string-returncode", "record-not-object",
        "not-an-object", "pid-one",
    ])
    def test_malformed_reply_is_a_crash(self, tmp_path, server_command,
                                        monkeypatch, case):
        script = tmp_path / "server.py"
        script.write_text(MALFORMED_SERVER, encoding="utf-8")
        server_command(f"{sys.executable} {script} {case}")
        killed_groups = []
        monkeypatch.setattr(os, "killpg", lambda pgid, sig: killed_groups.append(pgid))
        server = pyexec._Server()
        names, [(records, returncode, timed_out)] = run_bare(server)
        assert names == [None]
        assert (records, timed_out) == ([], False)
        assert returncode not in (0, None)
        assert not server.alive()
        assert 1 not in killed_groups
        assert pyexec.run_tests(GOOD_ADD, ADD).fault == "Crash"

    def test_lost_server_before_the_mutants_is_no_mutants(self, tmp_path, server_command):
        script = tmp_path / "server.py"
        script.write_text(MALFORMED_SERVER, encoding="utf-8")
        server_command(f"{sys.executable} {script} wrong-id")
        passing = pyexec.TestOutcome(total=3, passed=3)
        with pytest.raises(MutantError, match="lost before it named the mutants"):
            pyexec.vacuity_check(GOOD_ADD, ADD, reference=passing)
        assert pyexec._POOL._idle == []


class FixedGateway:
    """Answers every prompt with `text`; raises from round `fail_round` on."""

    def __init__(self, text, fail_round=None):
        self.text = text
        self.fail_round = fail_round
        self.calls = 0

    def complete_n(self, model_id, prompt, params):
        self.calls += 1
        if self.fail_round is not None and self.calls >= self.fail_round:
            raise RuntimeError("gateway down")
        digest = prompt_digest(model_id, prompt, params)
        return [
            CompletionRecord(model_id, digest, i, self.text)
            for i in range(params.n_samples)
        ]


class TestServerLifetime:
    def make_orchestrator(self, tmp_path, gateway):
        config = RunConfig.from_obj({
            "corpus": write_corpus(tmp_path, ADD),
            "models": ["mock-m"],
            "strategies": ["spec/direct"],
            "decoding": {"temperature": 0.7, "max_tokens": 512, "n_samples": 2},
            "max_retries": 2,
            "parallelism": 2,
            "python": {"timeout": 10.0},
            "runs_root": str(tmp_path / "runs"),
        })
        return Orchestrator(config, gateway=gateway,
                            verifier=LeanVerifier(transcripts={}))

    def test_run_leaves_no_children(self, tmp_path):
        gateway = FixedGateway(f"<python>\n{GOOD_ADD}</python>")
        result = self.make_orchestrator(tmp_path, gateway).run()
        assert all(c["final_status"] == "Success" for c in result.chains)
        assert children() == []

    def test_raising_run_leaves_no_children(self, tmp_path):
        # the first round's checks start servers; the retry's request raises
        gateway = FixedGateway(
            "<python>\ndef addInts(a, b):\n    return 0\n</python>", fail_round=2
        )
        with pytest.raises(RuntimeError, match="gateway down"):
            self.make_orchestrator(tmp_path, gateway).run()
        assert gateway.calls >= 2
        assert children() == []


CONTRACT_SRC = """import deal

@deal.pre(lambda a, b: a >= 0)
@deal.post(lambda result: result >= -10**7)
def addInts(a, b):
    return a + b
"""


class TestCheckContracts:
    def test_precondition_rejections_counted(self):
        report = pyexec.check_contracts(CONTRACT_SRC, ADD, trials=40, seed=7)
        assert report.trials == 40
        assert report.precondition_rejections > 0
        assert report.postcondition_violations == 0
        assert report.invariant_violations == 0

    def test_postcondition_violations_counted(self):
        src = (
            "import deal\n\n"
            "@deal.post(lambda result: result >= 0)\n"
            "def addInts(a, b):\n"
            "    return a + b\n"
        )
        report = pyexec.check_contracts(src, ADD, trials=40, seed=7)
        assert report.postcondition_violations > 0

    def test_faults_counted(self):
        src = (
            "def addInts(a, b):\n"
            "    if a % 2 == 0:\n"
            "        raise RuntimeError('even')\n"
            "    return a + b\n"
        )
        report = pyexec.check_contracts(src, ADD, trials=40, seed=7)
        assert report.faults > 0

    def test_probe_inputs_are_pinned_to_the_seed(self, monkeypatch):
        sent = relayed(monkeypatch, [])
        problem = make_problem(
            "f", [("xs", "List Int"), ("s", "String"), ("n", "Int")], "Int", []
        )
        pyexec.check_contracts("def f(xs, s, n):\n    return n\n", problem,
                               trials=3, seed=2)
        assert sent[0]["inputs"][0] == [[-807933, -822011, -242808], "xzvjitgtbs", 428676]
        nested = make_problem(
            "g", [("grid", "List (List Int)"), ("n", "Nat")], "Int", []
        )
        pyexec.check_contracts("def g(grid, n):\n    return n\n", nested,
                               trials=3, seed=1)
        assert sent[1]["inputs"][0] == [[[-465082, -752707, 39002, 595853]], 471325]

    def test_parenthesized_type_draws_the_same_probes(self, monkeypatch):
        sent = relayed(monkeypatch, [])
        for spelling in ("List Int", "List(Int)"):
            problem = make_problem("f", [("xs", spelling)], "Int", [])
            pyexec.check_contracts("def f(xs):\n    return 0\n", problem,
                                   trials=20, seed=4)
        assert sent[0]["inputs"] == sent[1]["inputs"]
        assert max(len(xs) for xs, in sent[1]["inputs"]) > 6

    def test_same_seed_reproduces(self):
        a = pyexec.check_contracts(CONTRACT_SRC, ADD, trials=30, seed=11)
        b = pyexec.check_contracts(CONTRACT_SRC, ADD, trials=30, seed=11)
        assert a == b

    def test_to_obj_shape(self):
        obj = pyexec.check_contracts(CONTRACT_SRC, ADD, trials=10, seed=1).to_obj()
        assert obj["type"] == "contracts"
        assert set(obj) == {
            "type", "trials", "precondition_rejections",
            "postcondition_violations", "invariant_violations", "faults",
        }

    def test_report_is_pinned(self):
        obj = pyexec.check_contracts(CONTRACT_SRC, ADD, trials=10, seed=1).to_obj()
        assert obj == {
            "type": "contracts", "trials": 10, "precondition_rejections": 5,
            "postcondition_violations": 0, "invariant_violations": 0, "faults": 0,
        }


CLAMP_PROBLEM = make_problem(
    "clampNonNeg", [("nums", "List Int")], "List Int",
    [(["[-3,-1,2]"], "[0,0,2]"), (["[5]"], "[5]"), (["[]"], "[]")],
)

CLAMP_SRC = """import deal

@deal.post(lambda result: all(r >= 0 for r in result))
@deal.ensure(lambda nums, result: len(result) == len(nums)
             and all((r == n) if n >= 0 else (r == 0)
                     for n, r in zip(nums, result)))
def clampNonNeg(nums):
    return [x if x >= 0 else 0 for x in nums]
"""


class TestBuildMutants:
    def test_full_recipe_set(self):
        mutants = build_mutants(CLAMP_SRC, "clampNonNeg")
        assert [name for name, _ in mutants] == [
            "const-return-zero", "const-return-none", "negate-comparisons",
            "mirror-comparisons", "return-plus-one", "return-minus-one",
        ]

    def test_mutant_sources_are_pinned(self):
        mutants = build_mutants(CLAMP_SRC, "clampNonNeg")
        joined = "\n".join(source for _, source in mutants)
        assert hashlib.sha256(joined.encode("utf-8")).hexdigest() == (
            "fba27a727f90c59b76b20aaa3dae614e83242d9ae319489be82ddb08bf336312"
        )

    def test_comparison_free_function_drops_flip_recipes(self):
        mutants = build_mutants(GOOD_ADD, "addInts")
        names = [name for name, _ in mutants]
        assert "negate-comparisons" not in names
        assert "mirror-comparisons" not in names
        assert "const-return-zero" in names

    def test_noop_const_mutant_dropped(self):
        src = "def f(x):\n    return 0\n"
        names = [name for name, _ in build_mutants(src, "f")]
        assert "const-return-zero" not in names
        assert "const-return-none" in names

    def test_assert_statements_never_mutated(self):
        src = (
            "def f(x):\n"
            "    assert x > 0\n"
            "    return x > 10\n"
        )
        mutants = dict(build_mutants(src, "f"))
        negated = mutants["negate-comparisons"]
        assert "assert x > 0" in negated
        assert "x <= 10" in negated

    def test_zero_constructible_raises(self):
        with pytest.raises(MutantBuildError):
            build_mutants("def f(x):\n    pass\n", "f")
        with pytest.raises(MutantBuildError, match="^cannot build mutants: SyntaxError: "):
            build_mutants("def f(x):\n    return (\n", "f")

    def test_source_too_deep_to_rewrite_raises(self):
        src = "def f(x):\n    return x" + " + 0" * 400 + "\n"
        compile(src, "<deep>", "exec")
        with pytest.raises(MutantBuildError,
                           match="^cannot build mutants: RecursionError: "):
            build_mutants(src, "f")

    def test_mutants_leave_other_functions_alone(self):
        src = (
            "def helper(x):\n"
            "    return x > 0\n\n"
            "def f(x):\n"
            "    return helper(x) and x > 10\n"
        )
        mutants = dict(build_mutants(src, "f"))
        assert "x > 0" in mutants["negate-comparisons"]
        assert "x <= 10" in mutants["negate-comparisons"]


class TestVacuity:
    def test_contract_free_spec_is_vacuous(self):
        report = pyexec.vacuity_check(GOOD_ADD, ADD, seed=3, random_trials=10)
        assert report.verdict == "Vacuous"
        assert report.mutants_rejected == 0
        assert report.mutants_total > 0

    def test_contracted_spec_is_nonvacuous(self):
        report = pyexec.vacuity_check(CLAMP_SRC, CLAMP_PROBLEM, seed=3,
                                      random_trials=10)
        assert report.verdict == "NonVacuous"
        assert report.mutants_total == 6
        assert report.mutants_rejected >= 4

    def test_crash_is_not_a_rejection(self):
        report = pyexec.vacuity_check(CLAMP_SRC, CLAMP_PROBLEM, seed=3,
                                      random_trials=10)
        by_name = {m["name"]: m for m in report.mutants}
        # list + 1 raises TypeError: the mutant dies without any contract firing
        assert by_name["return-plus-one"]["rejected"] is False
        assert by_name["return-plus-one"]["crashes"] > 0

    def test_error_exit_counts_as_a_crash(self):
        # the flipped comparison exits with an error, and no record, on its first probe
        src = (
            "import os\n\n"
            "def addInts(a, b):\n"
            "    if a > 10**7:\n"
            "        os._exit(1)\n"
            "    return a + b\n"
        )
        report = pyexec.vacuity_check(src, ADD, seed=3, random_trials=10)
        by_name = {m["name"]: m for m in report.mutants}
        for name in ("negate-comparisons", "mirror-comparisons"):
            assert by_name[name] == {"name": name, "rejected": False, "rejections": 0,
                                     "pre_rejections": 0, "crashes": 1}
        assert report.verdict == "Vacuous"

    def test_vacuity_check_is_one_request(self, monkeypatch):
        sent = relayed(monkeypatch, PASSING_ADD)
        reference = pyexec.run_tests(GOOD_ADD, ADD, timeout=30.0)
        report = pyexec.vacuity_check(GOOD_ADD, ADD, seed=3, random_trials=10,
                                      reference=reference)
        [check, request] = sent
        # one request shape: only the mutants flag and the work directories differ
        assert set(request) == set(check)
        assert {key for key in request if request[key] != check[key]} == {
            "inputs", "workdirs", "id", "mutants",
        }
        assert (check["mutants"], request["mutants"]) == (False, True)
        assert (len(check["workdirs"]), len(request["workdirs"])) == (1, 6)
        assert (request["source"], request["start"]) == (GOOD_ADD, 0)
        assert len(request["inputs"]) == 13
        assert report.mutants_total == 4

    def test_failed_build_raises_the_server_error(self):
        deep = "def addInts(a, b):\n    return a + b" + " + 0" * 400 + "\n"
        reference = pyexec.run_tests(deep, ADD)
        assert reference.all_passed
        with pytest.raises(MutantError, match="^cannot build mutants: RecursionError: "):
            pyexec.vacuity_check(deep, ADD, reference=reference)

    def test_failed_build_keeps_the_server(self, started):
        deep = "def addInts(a, b):\n    return a + b" + " + 0" * 400 + "\n"
        passing = pyexec.TestOutcome(total=3, passed=3)
        with pytest.raises(MutantError, match="^cannot build mutants: RecursionError: "):
            pyexec.vacuity_check(deep, ADD, reference=passing)
        # the server answered in turn, so it serves the next check
        assert pyexec.run_tests(GOOD_ADD, ADD).all_passed
        assert len(started) == 1
        assert pyexec._POOL._idle == started

    def test_self_violating_spec_is_inconsistent(self):
        src = (
            "import deal\n\n"
            "@deal.post(lambda result: result == 0)\n"
            "def addInts(a, b):\n"
            "    return a + b\n"
        )
        report = pyexec.vacuity_check(src, ADD, seed=3, random_trials=10)
        assert report.verdict == "InconsistentSpec"
        assert report.mutants_total == 0

    def test_to_obj_shape(self):
        obj = pyexec.vacuity_check(CLAMP_SRC, CLAMP_PROBLEM, seed=3,
                                   random_trials=5).to_obj()
        assert obj["type"] == "vacuity"
        assert obj["verdict"] == "NonVacuous"
        assert len(obj["mutants"]) == obj["mutants_total"]

    def test_report_is_pinned(self):
        obj = pyexec.vacuity_check(CLAMP_SRC, CLAMP_PROBLEM, seed=3,
                                   random_trials=10).to_obj()
        flip = {"rejected": True, "rejections": 12, "pre_rejections": 0, "crashes": 0}
        const = dict(flip, rejections=13)
        offset = {"rejected": False, "rejections": 0, "pre_rejections": 0, "crashes": 13}
        assert obj == {
            "type": "vacuity", "verdict": "NonVacuous",
            "mutants_total": 6, "mutants_rejected": 4,
            "mutants": [
                {"name": "const-return-zero", **const},
                {"name": "const-return-none", **const},
                {"name": "negate-comparisons", **flip},
                {"name": "mirror-comparisons", **flip},
                {"name": "return-plus-one", **offset},
                {"name": "return-minus-one", **offset},
            ],
        }


class TestDealShim:
    """The shim lives in the sandboxed child; observe it through outcomes."""

    def test_ensure_sees_arguments_and_result(self):
        src = (
            "import deal\n\n"
            "@deal.ensure(lambda a, b, result: result == a + b)\n"
            "def addInts(a, b):\n"
            "    return a + b\n"
        )
        assert pyexec.run_tests(src, ADD).all_passed

    def test_violated_ensure_fails_tests(self):
        src = (
            "import deal\n\n"
            "@deal.ensure(lambda a, b, result: result == a - b)\n"
            "def addInts(a, b):\n"
            "    return a + b\n"
        )
        outcome = pyexec.run_tests(src, ADD)
        assert outcome.fault == "RuntimeError"

    def test_unknown_deal_attributes_are_inert(self):
        src = (
            "import deal\n\n"
            "@deal.safe\n"
            "@deal.raises(ValueError)\n"
            "def addInts(a, b):\n"
            "    return a + b\n"
        )
        assert pyexec.run_tests(src, ADD).all_passed

    def test_inv_checks_attribute_writes(self):
        src = (
            "import deal\n\n"
            "@deal.inv(lambda self: self.total >= 0)\n"
            "class Acc:\n"
            "    def __init__(self):\n"
            "        self.total = 0\n"
            "    def add(self, v):\n"
            "        self.total = self.total + v\n"
            "        return self.total\n\n"
            "def addInts(a, b):\n"
            "    acc = Acc()\n"
            "    acc.add(a)\n"
            "    return acc.add(b)\n"
        )
        outcome = pyexec.run_tests(src, ADD)
        # the (-4, 4) case dips negative after the first add
        assert outcome.passed == 2
        assert outcome.fault == "RuntimeError"
