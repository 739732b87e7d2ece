"""Sandboxed execution backend for Python candidate solutions.

Candidates run outside this process, in a warm sandbox server
(`bridge.sandbox_server`) started as `-I -S` with a scrubbed environment, so
a candidate gets the standard library and the `deal` shim only.  For each
check the server forks a grandchild in its own session, which installs a
write-blocking audit hook and calls the candidate on the inputs it was sent,
in a fresh work directory.  The server kills the grandchild's process group
on timeout or past the output cap, reaps it, and relays one record per call.
Every check is one request, whose programs are the candidate itself or, for
a vacuity check, the mutants the server builds from it and forks one by one.
Forking in the server keeps `fork` out of the threaded orchestrator.
Expected values never leave this process: the verdict compares their
fingerprints here.
"""

from __future__ import annotations

import atexit
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import literals, sandbox_server
from .corpus import Problem, UnitTest
from .errors import MutantError, SandboxError

DEFAULT_TIMEOUT = 5.0
DEFAULT_TRIALS = 50
DEFAULT_RANDOM_TRIALS = 25

# env vars the child is allowed to inherit
_ENV_ALLOW = ("PATH", "LANG", "LC_ALL", "PYTHONIOENCODING")

# run as `<python> -I -S -c <text>`, so that BRIDGE_PYTHON_CMD wrappers need no file
_SERVER_SOURCE = Path(sandbox_server.__file__).read_text(encoding="utf-8")

class TestOutcome(NamedTuple):
    """Result of running a candidate against a problem's unit tests."""

    total: int
    passed: int
    failures: Tuple[Dict[str, object], ...] = ()
    fault: Optional[str] = None

    @property
    def all_passed(self) -> bool:
        return self.fault is None and self.passed == self.total

    def to_obj(self) -> Dict[str, object]:
        return {"type": "python", **self._asdict(),
                "failures": [dict(f) for f in self.failures]}


class ContractReport(NamedTuple):
    """Tally of contract activity over randomized trials."""

    trials: int
    precondition_rejections: int
    postcondition_violations: int
    invariant_violations: int
    faults: int

    def to_obj(self) -> Dict[str, object]:
        return {"type": "contracts", **self._asdict()}


class VacuityReport(NamedTuple):
    """Mutation-based check that a specification constrains behavior.

    verdict is one of Vacuous, NonVacuous, InconsistentSpec.
    """

    verdict: str
    mutants_total: int
    mutants_rejected: int
    mutants: Tuple[Dict[str, object], ...] = ()

    def to_obj(self) -> Dict[str, object]:
        return {"type": "vacuity", **self._asdict(), "mutants": [dict(m) for m in self.mutants]}


def _python_command() -> List[str]:
    env_cmd = os.environ.get("BRIDGE_PYTHON_CMD")
    if env_cmd:
        import shlex

        return shlex.split(env_cmd)
    return [sys.executable]


def _child_env() -> Dict[str, str]:
    return {name: os.environ[name] for name in _ENV_ALLOW if name in os.environ}


_ChildResult = Tuple[List[Dict[str, object]], Optional[int], bool]


class _Server:
    """One warm sandbox server, serving one request at a time.

    It talks over a socket pair rather than pipes: a socket cannot be
    reopened through `/proc/<pid>/fd`, so a candidate cannot write into the
    server's channel and answer for it or for a later request.
    """

    def __init__(self) -> None:
        import socket  # here, so that runs without Python checks never load it

        self._sock, server_end = socket.socketpair()
        try:
            self._proc = subprocess.Popen(
                _python_command() + ["-I", "-S", "-c", _SERVER_SOURCE],
                stdin=server_end.fileno(),
                stdout=server_end.fileno(),
                stderr=subprocess.DEVNULL,
                env=_child_env(),
            )
        except OSError as exc:
            self._sock.close()
            raise SandboxError(f"cannot launch candidate interpreter: {exc}") from exc
        finally:
            server_end.close()
        self._lines = self._sock.makefile("rb")
        self._pid: Optional[int] = None  # the grandchild of the request in flight
        ready = self._line()
        if ready.get("ready") is not True:
            self.close()
            detail = ready.get("error") or "it exited or wrote no ready line"
            raise SandboxError(f"sandbox server cannot start: {detail}")

    def alive(self) -> bool:
        return self._proc.poll() is None

    def _line(self) -> Dict[str, object]:
        """The server's next line; {} at EOF, on a lost socket, or for
        anything but a JSON object."""
        try:
            obj = json.loads(self._lines.readline())
        except (OSError, ValueError):
            return {}
        return obj if isinstance(obj, dict) else {}

    def run(
        self, request: Dict[str, object], results: List[_ChildResult]
    ) -> List[Optional[str]]:
        """Send a request and append each program's result from
        request["start"] on to `results`, up to one that loses the server;
        the names of all the programs, None for a check's one.  A lost
        check is a crash; MutantError when the server can build no mutants,
        or is lost before it names them."""
        token = request["id"]
        try:
            self._sock.sendall(json.dumps(request).encode("utf-8") + b"\n")
        except OSError:
            pass
        names = [None]
        if request["mutants"]:
            header = self._line()
            names = header.get("mutants")
            if header.get("id") == token and isinstance(header.get("error"), str):
                raise MutantError(header["error"])
            if (
                header.get("id") != token
                or not isinstance(names, list)
                or not all(isinstance(name, str) for name in names)
            ):
                # as a lost check is a crash rather than an abort, so is this
                self.close()
                raise MutantError("sandbox server lost before it named the mutants")
        for _ in range(request["start"], len(names)):
            results.append(self._result(token))
            if not self.alive():
                break
        return names

    def _result(self, token: object) -> _ChildResult:
        """The pid line and the result line of the check in flight."""
        reply: Dict[str, object] = {}
        started = self._line()
        pid = started.get("pid")
        # a pid of 0 or 1 would make killpg signal far more than a candidate
        if started.get("id") == token and type(pid) is int and pid > 1:
            self._pid = pid
            reply = self._line()
        result = _relayed(reply, token)
        if result is None:
            # the server died mid-request, most likely killed by the
            # candidate, or answered out of turn: a crash either way, and the
            # server is dropped so nothing it still sends reaches another check
            self.close()
            return [], self._proc.returncode or 1, False
        self._pid = None
        return result

    def close(self) -> None:
        """Kill the server and reap it, with any request's process group."""
        if self._pid is not None:
            try:
                os.killpg(self._pid, signal.SIGKILL)
            except OSError:
                pass
        self._proc.kill()
        self._proc.wait()
        self._lines.close()
        self._sock.close()


def _relayed(reply: Dict[str, object], token: str) -> Optional[_ChildResult]:
    """(records, returncode, timed_out) of a well-formed reply to `token`."""
    records = reply.get("records")
    returncode = reply.get("returncode")
    timed_out = reply.get("timed_out")
    if (
        reply.get("id") != token
        or not isinstance(records, list)
        or not all(isinstance(rec, dict) for rec in records)
        or not (returncode is None or type(returncode) is int)
        or type(timed_out) is not bool
    ):
        return None
    return records, returncode, timed_out


class _ServerPool:
    """Idle sandbox servers; one starts only when none is idle."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: List[_Server] = []

    def _take(self) -> _Server:
        """An idle server that is still alive, or a new one."""
        with self._lock:
            while self._idle:
                server = self._idle.pop()
                if server.alive():
                    return server
                server.close()
        return _Server()

    def run(
        self, request: Dict[str, object]
    ) -> Tuple[List[Optional[str]], List[_ChildResult]]:
        """The names of a request's programs and each one's result.  The
        programs after one that loses its server are asked of another; a
        server still alive goes back to the idle list."""
        results: List[_ChildResult] = []
        while True:
            server = self._take()
            try:
                names = server.run(request, results)
            except MutantError:
                raise  # a lost server is closed; one that built no mutants is in step
            except BaseException:
                server.close()
                raise
            finally:
                if server.alive():
                    with self._lock:
                        self._idle.append(server)
            if len(results) >= len(names):
                return names, results
            request = dict(request, start=len(results), id=os.urandom(16).hex())

    def shutdown(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for server in idle:
            server.close()


_POOL = _ServerPool()


def shutdown() -> None:
    """Stop and reap every idle sandbox server; the next check starts anew."""
    _POOL.shutdown()


atexit.register(shutdown)


@contextmanager
def _workdirs(count: int) -> Iterator[List[str]]:
    """`count` fresh work directories, removed with whatever is left in them."""
    made: List[str] = []
    try:
        for _ in range(count):
            made.append(tempfile.mkdtemp(prefix="bridge-py-"))
        yield made
    finally:
        for workdir in made:
            # Candidates rarely leave files, and rmdir of an empty directory
            # is far cheaper than a tree walk.
            try:
                os.rmdir(workdir)
            except OSError:
                shutil.rmtree(workdir, ignore_errors=True)


def _execute(
    source: str,
    function_name: str,
    inputs: List[List[object]],
    *,
    timeout: float,
    mutants: bool = False,
) -> List[Tuple[Optional[str], List[Optional[Dict[str, object]]], Optional[str]]]:
    """Call the candidate, or with `mutants` each of its mutants, on each
    argument list in a fresh work directory: per program, its name (None
    for the candidate), each input's record or None, and the run's fault.
    No expected value is sent."""
    with _workdirs(len(sandbox_server.RECIPES) if mutants else 1) as workdirs:
        names, results = _POOL.run({
            "source": source,
            "function_name": function_name,
            "inputs": inputs,
            "timeout": timeout,
            "workdirs": workdirs,
            "start": 0,
            "id": os.urandom(16).hex(),
            "mutants": mutants,
        })
    return [(name, *_judged(result, len(inputs)))
            for name, result in zip(names, results)]


def _judged(
    result: _ChildResult, count: int
) -> Tuple[List[Optional[Dict[str, object]]], Optional[str]]:
    """(each of `count` inputs' record or None, the run's fault) of a run.

    An input's record is the one whose index names it; a `crash` record
    stands for every input; a record that names no input counts for nothing.
    A second record for an input is Tampered, and leaves every input without
    a record.  Otherwise the fault is Timeout when the run timed out without
    a crash, Crash for a crash record or an error exit, and else None.
    """
    raw, returncode, timed_out = result
    crash = next((rec for rec in raw if rec.get("kind") == "crash"), None)
    if crash is not None:
        return [crash] * count, "Crash"
    records: List[Optional[Dict[str, object]]] = [None] * count
    for rec in raw:
        index = rec.get("index")
        if type(index) is int and 0 <= index < count:
            if records[index] is not None:
                return [None] * count, "Tampered"
            records[index] = rec
    if timed_out:
        return records, "Timeout"
    return records, None if returncode in (0, None) else "Crash"


def _matches(observed: object, test: UnitTest) -> bool:
    """Whether an observed fingerprint is that of the test's expected value,
    compared as multisets when the test is order-insensitive."""
    key = "sorted" if test.order_insensitive else "value"
    expected = (sandbox_server.fingerprint(test.parsed_expected()) or {}).get(key)
    if expected is None or not isinstance(observed, dict):
        return False
    return observed.get(key) == expected


def run_tests(
    artifact_body: str,
    problem: Problem,
    *,
    timeout: float = DEFAULT_TIMEOUT,
) -> TestOutcome:
    """Execute the candidate against the problem's unit tests."""
    [(_, records, fault)] = _execute(
        artifact_body, problem.function_name,
        [test.parsed_inputs() for test in problem.tests], timeout=timeout,
    )
    passed = 0
    failures: List[Dict[str, object]] = []
    for i, (test, rec) in enumerate(zip(problem.tests, records)):
        if rec is None:
            reason = "timeout" if fault == "Timeout" else "not run"
            failures.append({"index": i, "reason": reason})
        elif "kind" in rec:
            reason = "crash" if rec["kind"] == "crash" else "exception"
            failures.append({"index": i, "reason": reason, "error": rec.get("error")})
        elif _matches(rec.get("fingerprint"), test):
            passed += 1
        else:
            failures.append(
                {
                    "index": i,
                    "reason": "mismatch",
                    "observed": rec.get("repr"),
                    "expected": sandbox_server.clip(repr(test.parsed_expected())),
                }
            )
    if fault is None and any(f["reason"] == "exception" for f in failures):
        fault = "RuntimeError"
    return TestOutcome(len(problem.tests), passed, tuple(failures), fault)


def gen_value(rng: random.Random, node: literals.TypeNode) -> object:
    """A random value of a type parsed by `literals.parse_type`."""
    if node == "Int":
        return rng.randint(-1000000, 1000000)
    if node == "Nat":
        return rng.randint(0, 1000000)
    if node == "Bool":
        return rng.random() < 0.5
    if node == "String":
        letters = "abcdefghijklmnopqrstuvwxyz"
        return "".join(rng.choice(letters) for _ in range(rng.randint(0, 32)))
    inner = node[1]
    bound = 6 if isinstance(inner, tuple) else 32
    return [gen_value(rng, inner) for _ in range(rng.randint(0, bound))]


def _probes(problem: Problem, trials: int, seed: int) -> List[List[object]]:
    """`trials` argument lists drawn at random for the problem's parameter types."""
    rng = random.Random(seed)
    nodes = [literals.parse_type(ptype) for _, ptype in problem.params]
    return [[gen_value(rng, node) for node in nodes] for _ in range(trials)]


def _tally(records: Sequence[Optional[Dict[str, object]]]) -> Dict[str, int]:
    """How many inputs have a record of each kind, `ok` for a returned value;
    a missing record, or one of an unknown kind, counts for nothing."""
    counts = {"ok": 0, "pre": 0, "post": 0, "inv": 0, "fault": 0, "crash": 0}
    for rec in records:
        kind = None if rec is None else "ok" if "fingerprint" in rec else rec.get("kind")
        if isinstance(kind, str) and kind in counts:
            counts[kind] += 1
    return counts


def check_contracts(
    artifact_body: str,
    problem: Problem,
    *,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    timeout: float = DEFAULT_TIMEOUT,
) -> ContractReport:
    """Probe contract activity by calling the candidate on random inputs."""
    [(_, records, fault)] = _execute(
        artifact_body, problem.function_name, _probes(problem, trials, seed),
        timeout=timeout,
    )
    counts = _tally(records)
    faults = counts["fault"] + counts["crash"]
    if fault:
        # unattributed trouble counts against the candidate, not the contracts
        faults += trials - sum(counts.values())
    return ContractReport(trials, counts["pre"], counts["post"], counts["inv"], faults)


# --- specification vacuity ---------------------------------------------------


def vacuity_check(
    artifact_body: str,
    problem: Problem,
    *,
    seed: int = 0,
    random_trials: int = DEFAULT_RANDOM_TRIALS,
    timeout: float = DEFAULT_TIMEOUT,
    reference: Optional[TestOutcome] = None,
) -> VacuityReport:
    """Judge whether a specification's contracts actually constrain behavior.

    The reference implementation must satisfy its own contracts on the
    problem's tests; otherwise the verdict is InconsistentSpec.  `reference`
    is its run_tests outcome when the caller already has it, else it is run
    here.  Each mutant is rejected when a postcondition or invariant fires on
    at least one probe input.  A specification rejecting no mutants is
    Vacuous.  The sandbox server builds the mutants and runs each in its own
    fork; a source it can build none from raises MutantError.
    """
    if reference is None:
        reference = run_tests(artifact_body, problem, timeout=timeout)
    if not reference.all_passed:
        return VacuityReport("InconsistentSpec", 0, 0)

    probes = [test.parsed_inputs() for test in problem.tests]
    probes += _probes(problem, random_trials, seed)
    details: List[Dict[str, object]] = []
    for name, records, fault in _execute(
        artifact_body, problem.function_name, probes, timeout=timeout, mutants=True
    ):
        counts = _tally(records)
        if counts["crash"]:
            # mutation broke the module; a crash is not a contract rejection
            details.append(
                {"name": name, "rejected": False, "rejections": 0, "crashes": 1}
            )
            continue
        rejections = counts["post"] + counts["inv"]
        details.append(
            {
                "name": name,
                "rejected": rejections > 0,
                "rejections": rejections,
                "pre_rejections": counts["pre"],
                # a Timeout, an error exit or a second record spoiled the probes
                "crashes": counts["fault"] + (1 if fault else 0),
            }
        )

    rejected = sum(1 for mutant in details if mutant["rejected"])
    verdict = "NonVacuous" if rejected else "Vacuous"
    return VacuityReport(verdict, len(details), rejected, tuple(details))
