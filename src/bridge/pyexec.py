"""Sandboxed execution backend for Python candidate solutions.

Candidates run outside this process, in a warm sandbox server: a
long-lived, single-threaded interpreter with a scrubbed environment that
has the runner and a stubbed `deal` contracts module loaded.  For each
check the server forks a grandchild in its own session, which installs a
write-blocking audit hook, runs the candidate in a fresh work directory
and reports over a pipe with sentinel-prefixed lines, so candidate prints
cannot corrupt the protocol.  The server kills the grandchild's process
group on timeout or past the output cap, reaps it, and relays the records.
Forking in the server keeps `fork` out of the threaded orchestrator.
"""

from __future__ import annotations

import ast
import atexit
import copy
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .corpus import Problem
from .errors import MutantError, SandboxError

DEFAULT_TIMEOUT = 5.0
DEFAULT_TRIALS = 50
DEFAULT_RANDOM_TRIALS = 25

# env vars the child is allowed to inherit
_ENV_ALLOW = ("PATH", "LANG", "LC_ALL", "PYTHONIOENCODING", "SYSTEMROOT")

MUTANT_NAMES = (
    "const-return-zero",
    "const-return-none",
    "negate-comparisons",
    "mirror-comparisons",
    "return-plus-one",
    "return-minus-one",
)


@dataclass(frozen=True)
class TestOutcome:
    """Result of running a candidate against a problem's unit tests."""

    total: int
    passed: int
    failures: Tuple[Dict[str, object], ...] = ()
    fault: Optional[str] = None

    @property
    def all_passed(self) -> bool:
        return self.fault is None and self.passed == self.total

    def to_obj(self) -> Dict[str, object]:
        return {
            "type": "python",
            "total": self.total,
            "passed": self.passed,
            "failures": [dict(f) for f in self.failures],
            "fault": self.fault,
        }


@dataclass(frozen=True)
class ContractReport:
    """Tally of contract activity over randomized trials."""

    trials: int
    precondition_rejections: int
    postcondition_violations: int
    invariant_violations: int
    faults: int

    def to_obj(self) -> Dict[str, object]:
        return {
            "type": "contracts",
            "trials": self.trials,
            "precondition_rejections": self.precondition_rejections,
            "postcondition_violations": self.postcondition_violations,
            "invariant_violations": self.invariant_violations,
            "faults": self.faults,
        }


@dataclass(frozen=True)
class VacuityReport:
    """Mutation-based check that a specification constrains behavior.

    verdict is one of Vacuous, NonVacuous, InconsistentSpec.
    """

    verdict: str
    mutants_total: int
    mutants_rejected: int
    mutants: Tuple[Dict[str, object], ...] = field(default=())

    def to_obj(self) -> Dict[str, object]:
        return {
            "type": "vacuity",
            "verdict": self.verdict,
            "mutants_total": self.mutants_total,
            "mutants_rejected": self.mutants_rejected,
            "mutants": [dict(m) for m in self.mutants],
        }


# The sandbox server.  Kept dependency-free.  It first writes a line saying
# whether it can serve, then reads one JSON request per line on stdin and
# answers each with a line naming the grandchild's pid, then a line with the
# records the grandchild emitted, its return code and whether it timed out.
# Both answers echo the request's id.
_SERVER_PROGRAM = r'''
import json
import os
import random
import select
import signal
import sys
import time
import types

SENTINEL = "##REC## "
OUTPUT_CAP = 1 << 20
# longest text a record carries, so that honest records stay far below the cap
TEXT_CAP = 1000
WRITE_FLAGS = os.O_WRONLY | os.O_RDWR | os.O_APPEND | os.O_CREAT | os.O_TRUNC


def emit(rec):
    sys.stdout.write(SENTINEL + json.dumps(rec) + "\n")
    sys.stdout.flush()


def clip(text):
    return text if len(text) <= TEXT_CAP else text[:TEXT_CAP] + "..."


def install_sandbox(workdir):
    root = os.path.realpath(workdir)

    def inside(target):
        return os.path.commonpath([root, target]) == root

    def hook(event, args):
        if event == "open":
            path, mode, flags = args[0], args[1], args[2]
            if mode is None:
                writes = flags & WRITE_FLAGS  # os.open gives flags, not a mode
            else:
                writes = any(ch in mode for ch in "wax+")
            if writes:
                target = os.path.realpath(str(path))
                if not inside(target):
                    raise RuntimeError("write blocked outside sandbox: %s" % target)
        elif event in ("os.remove", "os.rename", "shutil.rmtree"):
            target = os.path.realpath(str(args[0]))
            if not inside(target):
                raise RuntimeError("file mutation blocked outside sandbox: %s" % target)

    sys.addaudithook(hook)


class ContractError(Exception):
    pass


class PreContractError(ContractError):
    pass


class PostContractError(ContractError):
    pass


class InvContractError(ContractError):
    pass


def _make_deal():
    deal = types.ModuleType("deal")
    deal.ContractError = ContractError
    deal.PreContractError = PreContractError
    deal.PostContractError = PostContractError
    deal.InvContractError = InvContractError

    def pre(validator, *a, **k):
        def deco(fn):
            def wrapped(*args, **kwargs):
                try:
                    ok = validator(*args, **kwargs)
                except ContractError:
                    raise
                except Exception as exc:
                    raise PreContractError(str(exc))
                if ok is False:
                    raise PreContractError("precondition failed")
                return fn(*args, **kwargs)

            wrapped.__name__ = getattr(fn, "__name__", "wrapped")
            return wrapped

        return deco

    def post(validator, *a, **k):
        def deco(fn):
            def wrapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                try:
                    ok = validator(result)
                except ContractError:
                    raise
                except Exception as exc:
                    raise PostContractError(str(exc))
                if ok is False:
                    raise PostContractError("postcondition failed")
                return result

            wrapped.__name__ = getattr(fn, "__name__", "wrapped")
            return wrapped

        return deco

    def ensure(validator, *a, **k):
        def deco(fn):
            def wrapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                try:
                    ok = validator(*args, result=result, **kwargs)
                except ContractError:
                    raise
                except Exception as exc:
                    raise PostContractError(str(exc))
                if ok is False:
                    raise PostContractError("postcondition failed")
                return result

            wrapped.__name__ = getattr(fn, "__name__", "wrapped")
            return wrapped

        return deco

    def inv(validator, *a, **k):
        def deco(cls):
            original_setattr = cls.__setattr__

            def checked_setattr(self, name, value):
                original_setattr(self, name, value)
                try:
                    ok = validator(self)
                except ContractError:
                    raise
                except Exception as exc:
                    raise InvContractError(str(exc))
                if ok is False:
                    raise InvContractError("invariant failed")

            cls.__setattr__ = checked_setattr
            return cls

        return deco

    def _identity(*a, **k):
        if len(a) == 1 and callable(a[0]) and not k:
            return a[0]

        def deco(fn):
            return fn

        return deco

    def _config(*a, **k):
        # always parenthesized (deal.raises(ValueError)); the arguments are
        # configuration, never the decorated function
        def deco(fn):
            return fn

        return deco

    def chain(*decos):
        def deco(fn):
            for d in reversed(decos):
                fn = d(fn)
            return fn

        return deco

    deal.pre = pre
    deal.post = post
    deal.ensure = ensure
    deal.inv = inv
    deal.safe = _identity
    deal.raises = _config
    deal.reason = _config
    deal.has = _config
    deal.pure = _identity
    deal.chain = chain
    return deal


def structural_eq(a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return False
        return all(structural_eq(x, y) for x, y in zip(a, b))
    return False


def multiset_eq(a, b):
    if not isinstance(a, list) or not isinstance(b, list) or len(a) != len(b):
        return False

    def key(v):
        try:
            return json.dumps(v, sort_keys=True)
        except TypeError:
            return repr(v)

    sa = sorted(a, key=key)
    sb = sorted(b, key=key)
    return all(structural_eq(x, y) for x, y in zip(sa, sb))


def gen_value(rng, type_text):
    t = type_text.strip()
    if t.startswith("(") and t.endswith(")"):
        t = t[1:-1].strip()
    if t == "Int":
        return rng.randint(-1000000, 1000000)
    if t == "Nat":
        return rng.randint(0, 1000000)
    if t == "Bool":
        return rng.random() < 0.5
    if t == "String":
        letters = "abcdefghijklmnopqrstuvwxyz"
        return "".join(rng.choice(letters) for _ in range(rng.randint(0, 32)))
    if t.startswith("List"):
        inner = t[4:].strip()
        bound = 32 if not inner.startswith("List") and not inner.startswith("(") else 6
        return [gen_value(rng, inner) for _ in range(rng.randint(0, bound))]
    raise ValueError("cannot generate values of type %s" % type_text)


def load_candidate(source, function_name):
    module = types.ModuleType("candidate")
    module.__dict__["__name__"] = "candidate"
    exec(compile(source, "<candidate>", "exec"), module.__dict__)
    fn = module.__dict__.get(function_name)
    if fn is None or not callable(fn):
        raise RuntimeError("candidate does not define function %s" % function_name)
    return fn


def run_mode_tests(payload, fn):
    for i, test in enumerate(payload["tests"]):
        inputs = test["inputs"]
        expected = test["expected"]
        try:
            observed = fn(*inputs)
        except Exception as exc:
            emit({
                "index": i,
                "status": "error",
                "error": clip("%s: %s" % (type(exc).__name__, exc)),
            })
            continue
        if test.get("order_insensitive"):
            same = multiset_eq(observed, expected)
        else:
            same = structural_eq(observed, expected)
        if same:
            emit({"index": i, "status": "pass"})
        else:
            emit({
                "index": i,
                "status": "fail",
                "observed": clip(repr(observed)),
                "expected": clip(repr(expected)),
            })


def run_mode_contracts(payload, fn):
    rng = random.Random(payload["seed"])
    inputs_list = [list(t["inputs"]) for t in payload.get("tests", [])]
    param_types = payload["param_types"]
    for _ in range(payload["trials"]):
        inputs_list.append([gen_value(rng, t) for t in param_types])
    for i, inputs in enumerate(inputs_list):
        try:
            fn(*inputs)
        except PreContractError:
            emit({"index": i, "kind": "pre"})
        except PostContractError:
            emit({"index": i, "kind": "post"})
        except (AssertionError, InvContractError):
            emit({"index": i, "kind": "inv"})
        except Exception as exc:
            emit({"index": i, "kind": "fault", "error": type(exc).__name__})
        else:
            emit({"index": i, "kind": "ok"})


def run_candidate(request):
    payload = request["payload"]
    sys.modules["deal"] = DEAL
    install_sandbox(request["workdir"])
    try:
        fn = load_candidate(payload["source"], payload["function_name"])
    except BaseException as exc:
        emit({"status": "crash", "error": clip("%s: %s" % (type(exc).__name__, exc))})
        return 3
    if payload["mode"] == "tests":
        run_mode_tests(payload, fn)
    else:
        run_mode_contracts(payload, fn)
    return 0


def grandchild(request, record_fd):
    """Run one request in this forked process; never returns."""
    code = 1  # an uncaught exception exits 1, as in a fresh interpreter
    try:
        os.setsid()
        null = os.open(os.devnull, os.O_RDWR)
        os.dup2(null, 0)
        os.dup2(record_fd, 1)
        os.dup2(null, 2)
        os.closerange(3, os.sysconf("SC_OPEN_MAX"))
        os.chdir(request["workdir"])
        os.environ["HOME"] = request["workdir"]
        code = run_candidate(request)
    except SystemExit as exc:
        if exc.code is None:
            code = 0
        elif isinstance(exc.code, int):
            code = exc.code & 0xFF
    finally:
        try:
            sys.stdout.flush()
        finally:
            os._exit(code)


def reply(out, obj):
    out.write(json.dumps(obj).encode("ascii") + b"\n")
    out.flush()


def serve(request, out):
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        grandchild(request, write_fd)
    os.close(write_fd)
    reply(out, {"id": request["id"], "pid": pid})
    exit_fd = os.pidfd_open(pid)
    deadline = time.monotonic() + request["timeout"]
    chunks = []
    size = 0
    timed_out = overflow = False
    watched = [read_fd, exit_fd]
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            timed_out = True
            break
        ready = select.select(watched, [], [], remaining)[0]
        if read_fd in ready:
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                watched.remove(read_fd)
                continue
            chunks.append(chunk)
            size += len(chunk)
            if size > OUTPUT_CAP:
                overflow = True
                break
        elif exit_fd in ready:
            break
    # the grandchild is not reaped yet, so its pid still names its group;
    # whatever it left running goes with it
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        # no such group: the grandchild ended, or is still alive, before its setsid()
        os.kill(pid, signal.SIGKILL)
    status = os.waitpid(pid, 0)[1]
    os.close(read_fd)
    os.close(exit_fd)
    if timed_out:
        returncode = None
    elif overflow:
        returncode = -signal.SIGKILL
    else:
        returncode = os.waitstatus_to_exitcode(status)
    records = []
    text = b"".join(chunks)[:OUTPUT_CAP].decode("utf-8", errors="replace")
    for line in text.splitlines():
        if line.startswith(SENTINEL):
            try:
                rec = json.loads(line[len(SENTINEL):])
            except ValueError:
                continue
            if isinstance(rec, dict):
                records.append(rec)
    reply(out, {
        "id": request["id"],
        "records": records,
        "returncode": returncode,
        "timed_out": timed_out,
    })


DEAL = _make_deal()


def main():
    requests = sys.stdin.buffer
    out = sys.stdout.buffer
    try:
        os.close(os.pidfd_open(os.getpid()))
    except (AttributeError, OSError) as exc:
        # no pidfds (Linux before 5.3, Python before 3.9, or a seccomp filter)
        reply(out, {"error": "pidfd_open: %s: %s" % (type(exc).__name__, exc)})
        return
    reply(out, {"ready": True})
    for line in iter(requests.readline, b""):
        serve(json.loads(line), out)


main()
'''


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
                _python_command() + ["-I", "-c", _SERVER_PROGRAM],
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
        try:
            ready = self._line()
        except OSError:
            ready = {}
        if ready.get("ready") is not True:
            self.close()
            detail = ready.get("error") or "it exited or wrote no ready line"
            raise SandboxError(f"sandbox server cannot start: {detail}")

    def alive(self) -> bool:
        return self._proc.poll() is None

    def _line(self) -> Dict[str, object]:
        """The server's next line; {} at EOF or for anything but a JSON object."""
        try:
            obj = json.loads(self._lines.readline())
        except ValueError:
            return {}
        return obj if isinstance(obj, dict) else {}

    def run(self, request: Dict[str, object]) -> _ChildResult:
        token = os.urandom(16).hex()
        reply: Dict[str, object] = {}
        try:
            self._sock.sendall(
                json.dumps(dict(request, id=token)).encode("utf-8") + b"\n"
            )
            started = self._line()
            pid = started.get("pid")
            # a pid of 0 or 1 would make killpg signal far more than a candidate
            if started.get("id") == token and type(pid) is int and pid > 1:
                self._pid = pid
                reply = self._line()
        except OSError:
            pass
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

    def run(self, request: Dict[str, object]) -> _ChildResult:
        server = None
        with self._lock:
            while self._idle and server is None:
                server = self._idle.pop()
                if not server.alive():
                    server.close()
                    server = None
        if server is None:
            server = _Server()
        try:
            result = server.run(request)
        except BaseException:
            server.close()
            raise
        if server.alive():
            with self._lock:
                self._idle.append(server)
        return result

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


def _run_child(payload: Dict[str, object], *, timeout: float) -> _ChildResult:
    """Run one payload in a fresh work directory: (records, returncode, timed_out)."""
    workdir = tempfile.mkdtemp(prefix="bridge-py-")
    try:
        request = {"payload": payload, "workdir": workdir, "timeout": timeout}
        return _POOL.run(request)
    finally:
        # Candidates rarely leave files, and rmdir of an empty directory is
        # far cheaper than a tree walk.
        try:
            os.rmdir(workdir)
        except OSError:
            shutil.rmtree(workdir, ignore_errors=True)


def _tests_payload(artifact_body: str, problem: Problem) -> Dict[str, object]:
    tests = []
    for test in problem.tests:
        tests.append(
            {
                "inputs": list(test.parsed_inputs()),
                "expected": test.parsed_expected(),
                "order_insensitive": test.order_insensitive,
            }
        )
    return {
        "mode": "tests",
        "source": artifact_body,
        "function_name": problem.function_name,
        "tests": tests,
    }


def run_tests(
    artifact_body: str,
    problem: Problem,
    *,
    timeout: float = DEFAULT_TIMEOUT,
) -> TestOutcome:
    """Execute the candidate against the problem's unit tests."""
    payload = _tests_payload(artifact_body, problem)
    records, returncode, timed_out = _run_child(payload, timeout=timeout)

    total = len(problem.tests)
    by_index: Dict[int, Dict[str, object]] = {}
    crash_error = None
    for rec in records:
        if rec.get("status") == "crash":
            crash_error = rec.get("error", "candidate failed to load")
            break
        idx = rec.get("index")
        if isinstance(idx, int) and 0 <= idx < total:
            by_index[idx] = rec

    if crash_error is not None:
        failures = tuple(
            {"index": i, "reason": "crash", "error": crash_error} for i in range(total)
        )
        return TestOutcome(total=total, passed=0, failures=failures, fault="Crash")

    passed = 0
    failures: List[Dict[str, object]] = []
    saw_error = False
    for i in range(total):
        rec = by_index.get(i)
        if rec is None:
            reason = "timeout" if timed_out else "not run"
            failures.append({"index": i, "reason": reason})
            continue
        status = rec.get("status")
        if status == "pass":
            passed += 1
        elif status == "fail":
            failures.append(
                {
                    "index": i,
                    "reason": "mismatch",
                    "observed": rec.get("observed"),
                    "expected": rec.get("expected"),
                }
            )
        else:
            saw_error = True
            failures.append(
                {"index": i, "reason": "exception", "error": rec.get("error")}
            )

    if timed_out:
        fault: Optional[str] = "Timeout"
    elif returncode not in (0, None):
        fault = "Crash"
    elif saw_error:
        fault = "RuntimeError"
    else:
        fault = None
    return TestOutcome(
        total=total, passed=passed, failures=tuple(failures), fault=fault
    )


def _contracts_payload(
    artifact_body: str,
    problem: Problem,
    *,
    trials: int,
    seed: int,
    include_tests: bool,
) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "mode": "contracts",
        "source": artifact_body,
        "function_name": problem.function_name,
        "param_types": [ptype for _, ptype in problem.params],
        "trials": trials,
        "seed": seed,
        "tests": [],
    }
    if include_tests:
        payload["tests"] = [
            {"inputs": list(t.parsed_inputs())} for t in problem.tests
        ]
    return payload


def _tally(records: Sequence[Dict[str, object]]) -> Dict[str, int]:
    counts = {"ok": 0, "pre": 0, "post": 0, "inv": 0, "fault": 0}
    for rec in records:
        kind = rec.get("kind")
        if kind in counts:
            counts[kind] += 1
    return counts


def check_contracts(
    artifact_body: str,
    problem: Problem,
    *,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    timeout: float = 30.0,
) -> ContractReport:
    """Probe contract activity by calling the candidate on random inputs."""
    payload = _contracts_payload(
        artifact_body, problem, trials=trials, seed=seed, include_tests=False
    )
    records, returncode, timed_out = _run_child(payload, timeout=timeout)
    counts = _tally(records)
    faults = counts["fault"]
    if timed_out or returncode not in (0, None):
        # unattributed trouble counts against the candidate, not the contracts
        faults += max(0, trials - sum(counts.values()))
    return ContractReport(
        trials=trials,
        precondition_rejections=counts["pre"],
        postcondition_violations=counts["post"],
        invariant_violations=counts["inv"],
        faults=faults,
    )


# --- specification vacuity ---------------------------------------------------


class _ComparisonFlip(ast.NodeTransformer):
    def __init__(self, table):
        self.table = table
        self.changed = False

    def visit_Assert(self, node: ast.Assert) -> ast.Assert:
        # assert statements encode invariants; never mutate them
        return node

    def visit_Compare(self, node: ast.Compare) -> ast.Compare:
        self.generic_visit(node)
        new_ops = []
        for op in node.ops:
            repl = self.table.get(type(op))
            if repl is not None:
                new_ops.append(repl())
                self.changed = True
            else:
                new_ops.append(op)
        node.ops = new_ops
        return node


class _ReturnRewrite(ast.NodeTransformer):
    def __init__(self, builder):
        self.builder = builder
        self.changed = False

    def visit_Assert(self, node: ast.Assert) -> ast.Assert:
        return node

    def visit_Return(self, node: ast.Return) -> ast.Return:
        self.generic_visit(node)
        new_value = self.builder(node.value)
        if new_value is not None:
            node.value = new_value
            self.changed = True
        return node


_NEGATE_TABLE = {
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Lt: ast.GtE,
    ast.LtE: ast.Gt,
    ast.Gt: ast.LtE,
    ast.GtE: ast.Lt,
}

_MIRROR_TABLE = {
    ast.Lt: ast.Gt,
    ast.Gt: ast.Lt,
    ast.LtE: ast.GtE,
    ast.GtE: ast.LtE,
}


def _const_builder(value):
    def build(_old):
        return ast.Constant(value=value)

    return build


def _offset_builder(delta: int):
    def build(old):
        base = old if old is not None else ast.Constant(value=0)
        return ast.BinOp(left=base, op=ast.Add(), right=ast.Constant(value=delta))

    return build


def _find_function(tree: ast.Module, name: str) -> ast.FunctionDef:
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise MutantError(f"candidate does not define a top-level function {name}")


def _apply_body_transform(source: str, function_name: str, transformer) -> Optional[str]:
    """Transform the target function's body; None when nothing changed.

    Decorator lists are left untouched so contract checks survive mutation.
    """
    tree = ast.parse(source)
    target = _find_function(tree, function_name)
    target.body = [transformer.visit(copy.deepcopy(stmt)) for stmt in target.body]
    if not transformer.changed:
        return None
    ast.fix_missing_locations(tree)
    return ast.unparse(tree)


def build_mutants(
    source: str, function_name: str, names: Sequence[str] = MUTANT_NAMES
) -> List[Tuple[str, str]]:
    """Build (name, source) mutants of the target function.

    Transforms that change nothing fall back to a stronger variant; a
    problem with no constructible mutants at all raises MutantError.
    """
    ast.parse(source)  # surface syntax errors before mutation

    recipes = {
        "const-return-zero": [_ReturnRewrite(_const_builder(0))],
        "const-return-none": [_ReturnRewrite(_const_builder(None))],
        "negate-comparisons": [_ComparisonFlip(_NEGATE_TABLE)],
        "mirror-comparisons": [_ComparisonFlip(_MIRROR_TABLE)],
        "return-plus-one": [
            _ReturnRewrite(_offset_builder(1)),
            _ReturnRewrite(_offset_builder(2)),
        ],
        "return-minus-one": [
            _ReturnRewrite(_offset_builder(-1)),
            _ReturnRewrite(_offset_builder(-2)),
        ],
    }

    built: List[Tuple[str, str]] = []
    for name in names:
        if name not in recipes:
            raise MutantError(f"unknown mutant recipe {name}")
        for transformer in recipes[name]:
            mutated = _apply_body_transform(source, function_name, transformer)
            if mutated is not None and mutated != ast.unparse(ast.parse(source)):
                built.append((name, mutated))
                break
    if not built:
        raise MutantError(
            f"no mutants constructible for function {function_name}"
        )
    return built


def vacuity_check(
    artifact_body: str,
    problem: Problem,
    *,
    seed: int = 0,
    random_trials: int = DEFAULT_RANDOM_TRIALS,
    mutant_names: Sequence[str] = MUTANT_NAMES,
    timeout: float = 30.0,
) -> VacuityReport:
    """Judge whether a specification's contracts actually constrain behavior.

    The reference implementation must satisfy its own contracts on the
    problem's tests; otherwise the verdict is InconsistentSpec.  Each mutant
    is rejected when a postcondition or invariant fires on at least one
    probe input.  A specification rejecting no mutants is Vacuous.
    """
    reference = run_tests(artifact_body, problem, timeout=timeout)
    if not reference.all_passed:
        return VacuityReport(
            verdict="InconsistentSpec", mutants_total=0, mutants_rejected=0
        )

    mutants = build_mutants(artifact_body, problem.function_name, mutant_names)
    details: List[Dict[str, object]] = []
    rejected_count = 0
    for name, mutated_source in mutants:
        payload = _contracts_payload(
            mutated_source,
            problem,
            trials=random_trials,
            seed=seed,
            include_tests=True,
        )
        records, returncode, timed_out = _run_child(payload, timeout=timeout)
        if records and records[0].get("status") == "crash":
            # mutation broke the module; a crash is not a contract rejection
            details.append(
                {"name": name, "rejected": False, "rejections": 0, "crashes": 1}
            )
            continue
        counts = _tally(records)
        rejections = counts["post"] + counts["inv"]
        rejected = rejections > 0
        if rejected:
            rejected_count += 1
        details.append(
            {
                "name": name,
                "rejected": rejected,
                "rejections": rejections,
                "pre_rejections": counts["pre"],
                "crashes": counts["fault"] + (1 if timed_out else 0),
            }
        )

    verdict = "NonVacuous" if rejected_count > 0 else "Vacuous"
    return VacuityReport(
        verdict=verdict,
        mutants_total=len(mutants),
        mutants_rejected=rejected_count,
        mutants=tuple(details),
    )
