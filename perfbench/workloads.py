"""The four workloads: set-up, one timed op, and one in-process traced op.

Load comes from one client in a closed loop: the next op starts when the
previous one has finished, and at most one child process exists at a time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import corpus

# What the ``likelymat`` console script runs.
CLI_ENTRY = "import sys; from likelymat.cli import main; sys.exit(main())"

# Measures one fresh interpreter's ``import likelymat``.
IMPORT_PROBE = (
    "import json, sys, time; t = time.perf_counter(); import likelymat; "
    "dt = time.perf_counter() - t; "
    "print(json.dumps({'import_s': dt, 'file': likelymat.__file__, 'scipy_modules': "
    "sum(1 for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))}))"
)


@dataclass
class Env:
    """Where the program lives and where a run may write."""

    root: Path
    src: Path
    work: Path

    def child_env(self) -> dict:
        return dict(os.environ, PYTHONPATH=str(self.src))


def import_probe(env: Env) -> dict:
    """A fresh interpreter's report on importing likelymat."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env.child_env(),
                         cwd=env.root, capture_output=True, text=True, check=True)
    report = json.loads(out.stdout)
    if not Path(report["file"]).resolve().is_relative_to(env.src.resolve()):
        raise RuntimeError(f"likelymat imported from {report['file']}, not from {env.src}")
    return report


def guarded(run_op) -> list[str]:
    """Errors of one op; an op that raises is a failed op, not a failed run."""
    try:
        return run_op()
    except Exception as e:
        return [f"raised {type(e).__name__}: {str(e)[:120]}"]


def _array(sol) -> np.ndarray:
    return sol.values if hasattr(sol, "values") else sol.matrix


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class CliWorkload:
    """``likelymat <cmd> file`` as subprocesses; traced in-process via main."""

    children = True

    def __init__(self, name, make_ops, out_file, layers):
        self.name = name
        self.make_ops = make_ops
        self.out_file = out_file
        self.layers = layers

    def setup(self, env: Env, seed: int) -> list:
        items = []
        for i, op in enumerate(self.make_ops(seed)):
            path = env.work / f"{i:02d}.{op.name}.json"
            path.write_text(op.text)
            argv = [op.command, str(path), *op.flags]
            out = env.work / f"{i:02d}.{op.name}.out" if self.out_file else None
            if out is not None:
                argv += ["--out", str(out)]
            items.append((op, argv, out))
        return items

    def warm_up(self, env: Env) -> None:
        """Run one small ``check`` child, so that the first timed op does not
        load the interpreter and the program from a cold file cache."""
        op = corpus.warm_up_op()
        path = env.work / "warm.json"
        path.write_text(op.text)
        _, errors, _ = self.timed(env, (op, [op.command, str(path)], None))
        if errors:
            raise RuntimeError(f"warm-up op failed: {errors}")

    def _output(self, out, stdout: str) -> str:
        if out is None:
            return stdout
        if not out.exists():
            return ""
        text = out.read_text()
        out.unlink()
        return text

    def timed(self, env: Env, item):
        """Run one child; return (latency, errors, the child's peak RSS in KiB).

        The child is waited for with ``wait4``, which gives each child's own
        peak memory; its output goes to files in the work directory.
        """
        op, argv, out = item
        stdout, stderr = env.work / "child.stdout", env.work / "child.stderr"
        redirect = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0)] + [
            (os.POSIX_SPAWN_OPEN, fd, str(path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
            for fd, path in ((1, stdout), (2, stderr))]
        t = perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, "-c", CLI_ENTRY, *argv],
                             env.child_env(), file_actions=redirect)
        _, status, usage = os.wait4(pid, 0)
        latency = perf_counter() - t
        text = self._output(out, stdout.read_text())
        errors = checks.cli_errors(op, os.waitstatus_to_exitcode(status), text, stderr.read_text())
        return latency, errors, usage.ru_maxrss

    def in_process(self, env: Env, item, call, counts):
        """Run through ``likelymat.cli.main``; ``call`` runs the op body."""
        op, argv, out = item
        cli = sys.modules["likelymat.cli"]
        stdout, stderr = io.StringIO(), io.StringIO()

        def body():
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    return cli.main(argv)
                except Exception as e:  # the interpreter prints a traceback, exits 1
                    print(f"Traceback (most recent call last):\n{type(e).__name__}: {e}",
                          file=stderr)
                    return 1

        code = call(body)
        text = self._output(out, stdout.getvalue())
        counts["cli.emit_bytes"] += len(text.encode())
        return checks.cli_errors(op, code, text, stderr.getvalue())


class InProcessWorkload:
    """Ops that call the library in the benchmark's own process."""

    children = False

    def timed(self, env: Env, item):
        latency = []

        def call(body):
            t = perf_counter()
            result = body()
            latency.append(perf_counter() - t)
            return result

        t = perf_counter()
        errors = guarded(lambda: self.in_process(env, item, call, {}))
        return (latency[0] if latency else perf_counter() - t), errors, None

    def warm_up(self, env: Env) -> None:
        """Run each kind of op once on tiny inputs."""
        for item in self._items(self.warm_ops()):
            self.in_process(env, item, lambda body: body(), {})

    def setup(self, env: Env, seed: int) -> list:
        return self._items(self.make_ops(seed))


class LibSolveWorkload(InProcessWorkload):
    """In-process ``likelymat.solve(spec)`` on specs validated in set-up."""

    name = "lib_solve"
    layers = ["startup (setup_s)", "constraints", "solve", "symmetric", "rect", "waterfill"]
    make_ops = staticmethod(corpus.lib_solve)

    @staticmethod
    def warm_ops():
        rng = np.random.default_rng(0)
        return [corpus.Op(name, "solve", "", "solve", case=case, doc=doc)
                for name, case, doc in corpus.ten_cases(rng, corpus.SMALL_SIZES)]

    @staticmethod
    def _items(ops) -> list:
        from likelymat.cli import load_problem
        return [(op, load_problem(op.doc)) for op in ops]

    def in_process(self, env: Env, item, call, counts):
        op, spec = item
        pkg = sys.modules["likelymat"]
        sol = call(lambda: pkg.solve(spec))
        errors = [] if sol.case.value == op.case else [f"case {sol.case.value}"]
        return errors + checks.solution_errors(op.doc, _array(sol))


class VerifyWorkload(InProcessWorkload):
    """In-process oracle: numeric_maxent + verify_kkt, and brute force.

    The closed forms the oracle checks are solved in set-up.
    """

    name = "verify"
    layers = ["startup (setup_s)", "oracle"]
    make_ops = staticmethod(corpus.verify)

    @staticmethod
    def warm_ops():
        rng = np.random.default_rng(0)
        return [corpus.Op("oracle.warm", "oracle", "", "oracle", case=corpus.TOTAL_ROW_BOUNDS,
                          doc=corpus.total_row_bounds(rng, 4, 4)),
                corpus.Op("brute.warm", "brute", "", "brute", doc=corpus.brute_2x2(rng))]

    @staticmethod
    def _items(ops) -> list:
        import likelymat
        from likelymat.cli import _oracle_objective, load_problem
        items = []
        for op in ops:
            spec = load_problem(op.doc)
            if op.check == "brute":
                items.append((op, spec, None, None))
            else:
                objective = _oracle_objective(spec, likelymat.classify(spec))
                items.append((op, spec, likelymat.solve(spec), objective))
        return items

    def in_process(self, env: Env, item, call, counts):
        op, spec, sol, objective = item
        oracle = sys.modules["likelymat.oracle"]
        if sol is None:
            result = call(lambda: oracle.brute_force_most_likely(spec))
            return checks.brute_errors(op.doc, result.argmax, result.count.value,
                                       result.n_feasible)

        def body():
            return (oracle.numeric_maxent(spec, objective, tol=1e-9),
                    oracle.verify_kkt(sol, spec))

        result, report = call(body)
        return checks.oracle_errors(float(np.abs(_array(sol) - result.matrix).max()), report.ok)


WORKLOADS = {
    "cli_small": CliWorkload("cli_small", corpus.cli_small, out_file=False, layers=[
        "startup", "cli", "constraints", "solve", "symmetric", "rect", "waterfill",
        "counting", "oracle"]),
    "cli_large": CliWorkload("cli_large", corpus.cli_large, out_file=True, layers=[
        "startup", "cli", "constraints", "solve", "symmetric", "rect", "waterfill",
        "counting"]),
    "lib_solve": LibSolveWorkload(),
    "verify": VerifyWorkload(),
}
