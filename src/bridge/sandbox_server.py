"""The sandbox server that `bridge.pyexec` runs Python candidates in.

Launched as `<python> -I -S -c <this file's text>`, possibly in a wrapper
that cannot see the `bridge` package, so it imports the standard library
only; with no `site`, a candidate sees the standard library and the `deal`
shim and nothing the host installed.  It writes a line saying whether it can
serve, then reads one JSON request per line.

A request carries `source`, `function_name`, `inputs` (one argument list per
call), `timeout`, `workdirs`, `start`, `id` and `mutants`.  Its programs are
the source itself, or with `mutants` the source's mutants (see
`build_mutants`); the server then first answers with the names of all of
them, or with an `error` when none can be built.  It runs each program from
index `start` on in a forked grandchild, in `workdirs[index]`, and answers
with a line naming the grandchild's pid, then one with the records the
grandchild emitted, its return code and whether it timed out, each echoing
the id.  A record says what one call returned (clipped `repr` and
`fingerprint`) or raised (`kind` and clipped `error`); a candidate that does
not load gives one `crash` record.  The build is deterministic, so a fresh
server asked from `start` on continues where a lost one stopped.  Judging is
left to `pyexec`.
"""

# also builds the compiler's AST state before the ready line, which each
# fork would otherwise build again in its first compile() (about 2 ms)
import ast
import hashlib
import json
import os
import resource
import select
import signal
import sys
import time
import types

SENTINEL = "##REC## "
OUTPUT_CAP = 1 << 20
# longest text a record carries, so that honest records stay far below the cap
TEXT_CAP = 1000
# what a candidate may take, so that a runaway fails in the candidate: address
# space, the size of a file it writes, and descriptors open at once; a lower
# hard limit inherited from the host stays.  CPU time needs no cap, since the
# wall-clock timeout ends the candidate.
MEMORY_CAP = 1 << 30
FILE_CAP = 16 << 20
DESCRIPTOR_CAP = 64
WRITE_FLAGS = os.O_WRONLY | os.O_RDWR | os.O_APPEND | os.O_CREAT | os.O_TRUNC
# audit events that change the file system, and how many leading arguments
# are paths; os.replace raises os.rename
PATH_ARGS = dict.fromkeys(
    ["os.remove", "os.rmdir", "os.mkdir", "os.chmod", "os.chown", "os.utime",
     "os.truncate", "shutil.rmtree"], 1)
PATH_ARGS.update(dict.fromkeys(["os.rename", "os.link", "os.symlink"], 2))


def emit(rec):
    sys.stdout.write(SENTINEL + json.dumps(rec) + "\n")
    sys.stdout.flush()


def clip(text):
    return text if len(text) <= TEXT_CAP else text[:TEXT_CAP] + "..."


def install_sandbox(workdir):
    root = os.path.realpath(workdir)

    def check(path):
        if isinstance(path, int):  # a call on an open descriptor
            path = "/proc/self/fd/%d" % path
        target = os.path.realpath(os.fsdecode(path))
        if os.path.commonpath([root, target]) != root:
            raise RuntimeError("write blocked outside sandbox: %s" % target)

    def hook(event, args):
        if event == "open" and not isinstance(args[0], int):
            path, mode, flags = args[0], args[1], args[2]
            if mode is None:
                writes = flags & WRITE_FLAGS  # os.open gives flags, not a mode
            else:
                writes = any(ch in mode for ch in "wax+")
            # a descriptor of an outside directory would let dir_fd calls out
            if writes or os.path.isdir(path):
                check(path)
        paths = list(args[:PATH_ARGS.get(event, 0)])
        if event == "os.symlink":
            # the kernel reads a relative target from the link's directory
            paths[0] = os.path.join(
                os.path.dirname(os.fsdecode(args[1])), os.fsdecode(args[0]))
        for path in paths:
            check(path)

    sys.addaudithook(hook)


class ContractError(Exception):
    pass


class PreContractError(ContractError):
    message = "precondition failed"


class PostContractError(ContractError):
    message = "postcondition failed"


class InvContractError(ContractError):
    message = "invariant failed"


def holds(validator, error, /, *args, **kwargs):
    """Raise `error` unless `validator(*args, **kwargs)` holds."""
    try:
        ok = validator(*args, **kwargs)
    except ContractError:
        raise
    except Exception as exc:
        raise error(str(exc))
    if ok is False:
        raise error(error.message)


def make_deal():
    deal = types.ModuleType("deal")
    deal.ContractError = ContractError
    deal.PreContractError = PreContractError
    deal.PostContractError = PostContractError
    deal.InvContractError = InvContractError

    def pre(validator, *a, **k):
        def deco(fn):
            def wrapped(*args, **kwargs):
                holds(validator, PreContractError, *args, **kwargs)
                return fn(*args, **kwargs)

            wrapped.__name__ = getattr(fn, "__name__", "wrapped")
            return wrapped

        return deco

    def post(validator, *a, **k):
        def deco(fn):
            def wrapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                holds(validator, PostContractError, result)
                return result

            wrapped.__name__ = getattr(fn, "__name__", "wrapped")
            return wrapped

        return deco

    def ensure(validator, *a, **k):
        def deco(fn):
            def wrapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                holds(validator, PostContractError, *args, result=result, **kwargs)
                return result

            wrapped.__name__ = getattr(fn, "__name__", "wrapped")
            return wrapped

        return deco

    def inv(validator, *a, **k):
        def deco(cls):
            original_setattr = cls.__setattr__

            def checked_setattr(self, name, value):
                original_setattr(self, name, value)
                holds(validator, InvContractError, self)

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


def encode(value):
    """Canonical JSON of a literal (an int, bool or str, or a list of literals),
    subclasses encoded as their base type; None for any other value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, list):
        items = [encode(item) for item in value]
        return None if None in items else "[" + ", ".join(items) + "]"
    return None


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(value):
    """SHA-256 digests of a literal's canonical JSON and, for a list, of its
    sorted element encodings, which match exactly when the lists are equal as
    multisets; None for a value outside the literal grammar."""
    text = encode(value)
    if text is None:
        return None
    items = sorted(encode(item) for item in value) if isinstance(value, list) else None
    return {
        "value": sha256(text),
        "sorted": None if items is None else sha256("\n".join(items)),
    }


def load_candidate(source, function_name):
    module = types.ModuleType("candidate")
    exec(compile(source, "<candidate>", "exec"), module.__dict__)
    fn = module.__dict__.get(function_name)
    if fn is None or not callable(fn):
        raise RuntimeError("candidate does not define function %s" % function_name)
    return fn


KINDS = (
    (PreContractError, "pre"),
    (PostContractError, "post"),
    ((AssertionError, InvContractError), "inv"),
)


def call(fn, args):
    """The record of one call: what it returned, or what it raised."""
    try:
        value = fn(*args)
        return {"repr": clip(repr(value)), "fingerprint": fingerprint(value)}
    except Exception as exc:
        kind = next((k for cls, k in KINDS if isinstance(exc, cls)), "fault")
        return {"kind": kind, "error": clip("%s: %s" % (type(exc).__name__, exc))}


def run_candidate(request):
    install_sandbox(request["workdir"])
    try:
        fn = load_candidate(request["source"], request["function_name"])
    except BaseException as exc:
        emit({"kind": "crash", "error": clip("%s: %s" % (type(exc).__name__, exc))})
        return 3
    for index, args in enumerate(request["inputs"]):
        emit(dict(call(fn, args), index=index))
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
        # after closerange, whose bound the descriptor cap would lower
        for limit, wanted in ((resource.RLIMIT_AS, MEMORY_CAP),
                              (resource.RLIMIT_FSIZE, FILE_CAP),
                              (resource.RLIMIT_NOFILE, DESCRIPTOR_CAP)):
            hard = resource.getrlimit(limit)[1]
            cap = wanted if hard == resource.RLIM_INFINITY else min(wanted, hard)
            resource.setrlimit(limit, (cap, cap))
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


class Mutator(ast.NodeTransformer):
    """Flips comparison operators by `flips` and rewrites each return value
    by `returns(old value)`.  Assert statements encode invariants and are
    never mutated."""

    def __init__(self, flips=None, returns=None):
        self.flips = flips or {}
        self.returns = returns

    def visit_Assert(self, node):
        return node

    def visit_Compare(self, node):
        self.generic_visit(node)
        node.ops = [self.flips.get(type(op), type(op))() for op in node.ops]
        return node

    def visit_Return(self, node):
        self.generic_visit(node)
        if self.returns is not None:
            node.value = self.returns(node.value)
        return node


def plus(delta):
    def build(old):
        base = old if old is not None else ast.Constant(value=0)
        return ast.BinOp(left=base, op=ast.Add(), right=ast.Constant(value=delta))

    return build


NEGATE = {
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Lt: ast.GtE,
    ast.LtE: ast.Gt,
    ast.Gt: ast.LtE,
    ast.GtE: ast.Lt,
}

MIRROR = {
    ast.Lt: ast.Gt,
    ast.Gt: ast.Lt,
    ast.LtE: ast.GtE,
    ast.GtE: ast.LtE,
}

# each recipe's mutators, in order: the first that changes the source is used
RECIPES = {
    "const-return-zero": [Mutator(returns=lambda old: ast.Constant(value=0))],
    "const-return-none": [Mutator(returns=lambda old: ast.Constant(value=None))],
    "negate-comparisons": [Mutator(flips=NEGATE)],
    "mirror-comparisons": [Mutator(flips=MIRROR)],
    "return-plus-one": [Mutator(returns=plus(1)), Mutator(returns=plus(2))],
    "return-minus-one": [Mutator(returns=plus(-1)), Mutator(returns=plus(-2))],
}


class MutantBuildError(Exception):
    """No mutant of the target function can be built."""


def mutate(source, function_name, mutator):
    """The source with the function's body mutated; its decorators, and so
    its contracts, are kept."""
    tree = ast.parse(source)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == function_name:
            node.body = [mutator.visit(stmt) for stmt in node.body]
            return ast.unparse(tree)
    raise MutantBuildError(
        "candidate does not define a top-level function %s" % function_name)


def build_mutants(source, function_name):
    """Build (name, source) mutants of the target function.

    A recipe whose mutator changes nothing falls back to the next one.  A
    problem with no constructible mutants at all, or a source that does not
    parse or is too deep or too large to rewrite, raises MutantBuildError.
    """
    try:
        original = ast.unparse(ast.parse(source))
        built = []
        for name, mutators in RECIPES.items():
            for mutator in mutators:
                mutated = mutate(source, function_name, mutator)
                if mutated != original:
                    built.append((name, mutated))
                    break
    except (SyntaxError, RecursionError, MemoryError) as exc:
        raise MutantBuildError(
            "cannot build mutants: %s: %s" % (type(exc).__name__, exc)) from None
    if not built:
        raise MutantBuildError(
            "no mutants constructible for function %s" % function_name)
    return built


def reply(out, obj):
    out.write(json.dumps(obj).encode("ascii") + b"\n")
    out.flush()


def fork(request, out):
    """Run one program in a grandchild and relay its result."""
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


def serve(request, out):
    sources = [request["source"]]
    if request["mutants"]:
        try:
            built = build_mutants(request["source"], request["function_name"])
        except MutantBuildError as exc:
            reply(out, {"id": request["id"], "error": str(exc)})
            return
        reply(out, {"id": request["id"], "mutants": [name for name, _ in built]})
        sources = [source for _, source in built]
    for index in range(request["start"], len(sources)):
        fork(dict(request, source=sources[index],
                  workdir=request["workdirs"][index]), out)


def main():
    requests = sys.stdin.buffer
    out = sys.stdout.buffer
    try:
        os.close(os.pidfd_open(os.getpid()))
    except (AttributeError, OSError) as exc:
        # no pidfds (Linux before 5.3, Python before 3.9, or a seccomp filter)
        reply(out, {"error": "pidfd_open: %s: %s" % (type(exc).__name__, exc)})
        return
    sys.modules["deal"] = make_deal()  # built once, inherited by every fork
    reply(out, {"ready": True})
    for line in iter(requests.readline, b""):
        serve(json.loads(line), out)


if __name__ == "__main__":
    main()
