"""The pair worker: the last model of a two-model step plan, trained in a forked process.

Within an iteration each student reads only targets from the frozen teachers, so
a step's inlier update and outlier update are independent work. ``run_training``
enters :func:`attached` after pair derivation. When the step plan trains two
models (``full``, ``no_soft_weighting``, ``no_logit_match``, ``no_consistency``),
the process may run on at least two CPUs (``os.sched_getaffinity``) and runs one
thread, it forks one worker. One thread means no other Python thread, which
makes forking unsafe, and no BLAS thread pool: a pool in each process
oversubscribes the CPUs (with OpenBLAS unpinned, a 64-64-32 ``full`` run took
2.6x as long with the worker as without). The worker owns the outlier student's
step (``trainer._model_step``, the code the serial path runs) and that student's
evaluation forward. The parent trains the inlier student, then draws the next
step while the worker finishes. Every other run trains serially. Either way the
results are bit-identical: the same functions run on the same values, and the
random draws keep their order.

The two processes share one anonymous mapping. It holds the outlier pair's
teacher and student parameter vectors and the student's SGD velocity, so the
parent reads them in place for checkpoints, teacher refreshes, callbacks and the
result; they are copied back into private arrays when the worker stops. It also
holds the staging buffers: the parent writes a step's inputs there, the worker
writes back its loss values and its evaluation probabilities. A command and its
reply are one-byte tokens on two pipes. A waiter polls its pipe for up to
``_POLL_S``, then blocks; end of file tells either side that the other is gone.
An exception in the worker is raised again in the parent, with its own type.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import pickle
import select
import struct
import time
import traceback
from dataclasses import fields

import numpy as np

from .losses import LossReport
from .models import TeacherStudentPair
from .trainer import _model_step, _Step, _step_plan

_POLL_S = 2e-3  # how long a waiter polls its pipe before it blocks
_ALIGN = 64  # byte alignment of every array in the shared mapping
_REPORT_FIELDS = tuple(f.name for f in fields(LossReport))
# the step inputs staged for the worker, in _Step's order with the worker role's targets inline
_STAGED = ("labeled_x", "labeled_y", "weak_u", "strong_u", "gate", "pseudo", "p_teacher", "weights")


def _threads() -> int:
    """Threads of this process as the OS counts them, Python's and native ones such as a BLAS
    pool; 0 where the count cannot be read."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


@contextlib.contextmanager
def attached(state):
    """Run the block with a pair worker on ``state`` when the conditions above hold, else
    serially. On exit the worker is stopped and reaped, also when the block raises."""
    plan = _step_plan(state.pipeline, state.config)
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if len(plan) != 2 or not hasattr(os, "fork") or len(cpus) < 2 or _threads() != 1:
        yield
        return
    state.worker = PairWorker(state, *list(plan.items())[-1])
    try:
        yield
    finally:
        worker, state.worker = state.worker, None
        worker.close()


class PairWorker:
    """The parent's handle on the forked process that trains model ``name`` of the plan.

    A two-model plan gives each model one branch, so the worker's model reads the
    teacher targets of one role.
    """

    def __init__(self, state, name: str, branches) -> None:
        self.name = name
        cfg, split = state.config, state.split
        self._pair, self._optimizer = state.pairs[name], state.optimizers[name]
        self._role = branches[0].role
        self._eval_x = split.unlabeled_x
        rows = min(cfg.batch_size, len(split.labeled_x))
        u_rows, classes = cfg.mu * rows, split.K + 1
        self._arrays = _mapping({
            "teacher": (np.float64, self._pair.teacher.flat.size),
            "student": (np.float64, self._pair.student.flat.size),
            "velocity": (np.float64, self._optimizer.velocity.size),
            "labeled_x": (np.float64, rows * split.dim),
            "labeled_y": (split.labeled_y.dtype, rows),
            "weak_u": (np.float64, u_rows * split.dim),
            "strong_u": (np.float64, u_rows * split.dim),
            "gate": (np.bool_, u_rows),
            "pseudo": (np.intp, u_rows),
            "p_teacher": (np.float64, classes * u_rows),
            "weights": (np.float64, u_rows),
            "shapes": (np.int64, 3 * len(_STAGED)),  # per staged array: ndim (-1 if absent), rows, columns
            "scalars": (np.float64, 2),  # lr, k1_scored
            "reply": (np.float64, 2 + 2 * len(_REPORT_FIELDS)),  # forwards, n, then n (field, value)
            "eval": (np.float64, classes * len(split.unlabeled_x)),
        })
        self._pair.teacher.rehome(self._arrays["teacher"])
        self._pair.student.rehome(self._arrays["student"])
        self._arrays["velocity"][:] = self._optimizer.velocity
        self._optimizer.velocity = self._arrays["velocity"]

        cmd_r, self._cmd_w = os.pipe()
        self._reply_r, reply_w = os.pipe()
        self._pending = None  # the token of the reply not yet read
        self._pid = os.fork()
        if self._pid == 0:  # the worker: serve commands until end of file, then exit
            code = 0
            try:
                os.close(self._cmd_w)
                os.close(self._reply_r)
                os.set_blocking(cmd_r, False)
                self._serve(cmd_r, reply_w, branches, cfg)
            except BaseException as exc:  # noqa: BLE001 - the parent raises it again
                code = 1
                _send_exception(reply_w, exc)
            finally:
                os._exit(code)
        os.close(cmd_r)
        os.close(reply_w)
        os.set_blocking(self._reply_r, False)

    # -- the parent's side --------------------------------------------------

    def start(self, step: _Step, lr: float) -> None:
        """Stage ``step`` and have the worker train its model on it."""
        gate, pseudo, p_teacher = step.targets.get(self._role, (None, None, None))
        arrays = (step.labeled_x, step.labeled_y, step.weak_u, step.strong_u, gate, pseudo, p_teacher,
                  step.weights)
        shapes = self._arrays["shapes"].reshape(len(_STAGED), 3)
        for i, (name, a) in enumerate(zip(_STAGED, arrays)):
            shapes[i] = (-1, 0, 0) if a is None else (a.ndim, *a.shape, *(0,) * (2 - a.ndim))
            if a is not None:
                np.copyto(self._arrays[name][: a.size].reshape(a.shape), a, casting="no")
        self._arrays["scalars"][:] = (lr, step.k1_scored)
        self._send(b"s")

    def finish(self) -> tuple[dict[str, float], int]:
        """Wait for the step :meth:`start` began: the report fields of the worker's model, and
        the unlabeled rows it forwarded."""
        self._collect(b"s")
        reply = self._arrays["reply"]
        pairs = reply[2 : 2 + 2 * int(reply[1])].reshape(-1, 2)
        return {_REPORT_FIELDS[int(i)]: float(v) for i, v in pairs}, int(reply[0])

    def evaluation_pairs(self, pairs: dict) -> dict:
        """``pairs`` for one evaluation: the worker starts its student's forward of the unlabeled
        set now, and the scorer collects it through the stand-in student."""
        self._send(b"e")
        pair = pairs[self.name]
        return {**pairs, self.name: TeacherStudentPair(pair.teacher, _Evaluated(self, pair.student))}

    def close(self) -> None:
        """Stop and reap the worker, then copy the shared parameters back into private arrays."""
        os.close(self._cmd_w)  # the worker reads end of file and exits
        try:
            os.waitpid(self._pid, 0)
        finally:
            os.close(self._reply_r)
        for model in (self._pair.teacher, self._pair.student):
            model.rehome(np.empty_like(model.flat))
        self._optimizer.velocity = self._optimizer.velocity.copy()
        self._arrays = None  # the mapping is unmapped with its last view

    def _send(self, token: bytes) -> None:
        self._settle()
        try:
            os.write(self._cmd_w, token)
        except BrokenPipeError as exc:
            raise ChildProcessError("the pair worker exited") from exc
        self._pending = token

    def _settle(self) -> None:
        """Read the reply still due, if any (an evaluation nobody collected)."""
        if self._pending is not None:
            self._collect(self._pending)

    def _collect(self, token: bytes) -> None:
        got = _receive(self._reply_r)
        self._pending = None
        if got == b"x":
            exc, text = _read_exception(self._reply_r)
            raise exc from ChildProcessError(f"raised in the pair worker:\n{text}")
        if got != token:
            raise ChildProcessError("the pair worker exited")

    def _evaluation(self) -> np.ndarray:
        self._collect(b"e")
        return self._arrays["eval"].reshape(-1, len(self._eval_x)).copy()

    # -- the worker's side --------------------------------------------------

    def _serve(self, cmd_r: int, reply_w: int, branches, cfg) -> None:
        student = self._pair.student
        while True:
            token = _receive(cmd_r)
            if token == b"s":
                step, lr = self._staged()
                values, forwards = _model_step(student, self._optimizer, branches, step, cfg, lr)
                reply = self._arrays["reply"]
                reply[:2] = forwards, len(values)
                for j, (name, value) in enumerate(values.items()):
                    reply[2 + 2 * j : 4 + 2 * j] = _REPORT_FIELDS.index(name), value
            elif token == b"e":
                probs = student.probs(self._eval_x, head="k1")
                self._arrays["eval"][: probs.size] = probs.ravel()
            else:  # end of file: the parent is done, or gone
                return
            os.write(reply_w, token)

    def _staged(self) -> tuple[_Step, float]:
        shapes = self._arrays["shapes"].reshape(len(_STAGED), 3)
        arrays = [None if ndim < 0 else self._arrays[name][: math.prod(shape[:ndim])].reshape(shape[:ndim])
                  for name, (ndim, *shape) in zip(_STAGED, shapes.tolist())]
        labeled_x, labeled_y, weak_u, strong_u, gate, pseudo, p_teacher, weights = arrays
        lr, k1_scored = self._arrays["scalars"].tolist()
        step = _Step(labeled_x, labeled_y, weak_u, strong_u, {self._role: (gate, pseudo, p_teacher)},
                     weights, bool(k1_scored), LossReport(), 0)
        return step, lr


class _Evaluated:
    """Stands in for the worker's student in one evaluation: its probabilities of the unlabeled
    set are the worker's forward; everything else is the model itself, read in place."""

    def __init__(self, worker: PairWorker, model) -> None:
        self._worker, self._model = worker, model

    def __getattr__(self, name):
        return getattr(self._model, name)

    def probs(self, x, head: str = "k") -> np.ndarray:
        worker = self._worker
        if x is worker._eval_x and head == "k1" and worker._pending == b"e":
            return worker._evaluation()
        return self._model.probs(x, head)


def _mapping(layout: dict) -> dict[str, np.ndarray]:
    """A 1-D array per ``layout`` entry (name -> (dtype, size)) in one anonymous shared
    mapping, each at an ``_ALIGN``-byte boundary; the arrays keep the mapping alive."""
    offsets, at = {}, 0
    for name, (dtype, size) in layout.items():
        offsets[name] = at
        at += -(-np.dtype(dtype).itemsize * max(size, 1) // _ALIGN) * _ALIGN
    memory = mmap.mmap(-1, at)
    return {name: np.frombuffer(memory, dtype, size, offsets[name])
                    for name, (dtype, size) in layout.items()}


def _receive(fd: int) -> bytes:
    """The next token on the non-blocking ``fd``, b"" at end of file: polled for up to
    ``_POLL_S``, then waited for."""
    deadline = time.perf_counter() + _POLL_S
    while True:
        try:
            return os.read(fd, 1)
        except BlockingIOError:
            if time.perf_counter() > deadline:
                select.select([fd], [], [])


def _send_exception(fd: int, exc: BaseException) -> None:
    """Write b"x", then the pickled ``(exception, traceback text)``; None for an exception
    that does not pickle. Gives up quietly when the parent is gone."""
    text = traceback.format_exc()
    try:
        payload = pickle.dumps((exc, text))
    except Exception:  # noqa: BLE001 - whatever pickling raises, the text still goes
        payload = pickle.dumps((None, text))
    message = b"x" + struct.pack("<Q", len(payload)) + payload
    with contextlib.suppress(OSError):
        while message:
            message = message[os.write(fd, message):]


def _read_exception(fd: int) -> tuple[BaseException, str]:
    """The exception after a b"x" token, or a ChildProcessError when it cannot be rebuilt."""
    (size,) = struct.unpack("<Q", _read_exactly(fd, 8))
    payload = _read_exactly(fd, size)
    try:
        exc, text = pickle.loads(payload)
    except Exception as failure:  # noqa: BLE001 - e.g. a class that no longer imports
        return ChildProcessError(f"the pair worker raised an exception that cannot be rebuilt: {failure}"), ""
    return exc if exc is not None else ChildProcessError(f"the pair worker raised:\n{text}"), text


def _read_exactly(fd: int, size: int) -> bytes:
    chunks = []
    while size:
        select.select([fd], [], [])
        chunk = os.read(fd, size)
        if not chunk:
            raise ChildProcessError("the pair worker exited mid-message")
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)
