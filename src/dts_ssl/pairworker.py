"""The pair worker: one forked process per run that scores pre-training's teachers and trains
the last model of the iterations' step plan.

Nothing reads a pre-training record before the phase ends, and within an
iteration the teachers are frozen, so a step's draw (batch, views, teacher
targets) does not depend on the students it feeds, and each student reads only
those targets. ``run_training`` enters :func:`attached` before pre-training,
unless a step callback is set. When the process may run on at least two CPUs
(``os.sched_getaffinity``), ``fork`` exists and the process runs one thread, it
forks one worker, whatever the mode. One thread means no other Python thread,
which makes forking unsafe, and no BLAS thread pool: a pool in each process
oversubscribes the CPUs (with OpenBLAS unpinned, a 64-64-32 ``full`` run took
2.6x as long with the worker as without). Otherwise the run trains serially.

In pre-training the parent trains the teacher. In the iterations the worker
trains the plan's last model (``trainer._model_step``, the code the serial path
runs) on a private copy: the outlier student of a two-model plan, the one model
of a one-model plan; the parent draws every step, trains the other model, if
any, and evaluates. This is the one statement of the schedule
(``trainer._run_epochs``):

- Pre-training. After an epoch's steps the parent takes the worker's scores of
  the previous epoch's teacher (:meth:`PairWorker.detection`), if any, has the
  worker score this epoch's (:meth:`PairWorker.detect`) and makes a private
  copy of it. It then makes the previous epoch's ``trainer.evaluate_pipeline``
  call on that epoch's private copy, with the scores taken as its detection
  half, and appends its record, one epoch late; the last epoch's follows the
  loop. So the worker scores epoch e while the parent evaluates epoch e-1 and
  trains epoch e+1.
  After the phase the parent derives the pairs and copies the worker's model,
  parameters and SGD velocity, into the mapping (:meth:`PairWorker.attach`),
  from which the worker copies it: after pre-training the worker trains and
  scores only values the parent put there.
- Steps. Steps are drawn only when they are staged, in order, on both paths.
  A phase in which the worker trains no model (pre-training, and every phase of
  a run without a worker) draws each step just before training it. In the
  iterations the parent stages step i+1 of an epoch in one of ``_SLOTS`` (two)
  slots, used in turn, before it trains its own model on step i, so the worker
  trains ahead of the parent.
- Epoch ends. After an epoch's steps the parent queues a detect command (an
  evaluated epoch, where the worker detects); in the iterations it stages the
  next epoch's first two steps (none past a phase's end), and only then
  evaluates, records and calls back, while the worker trains on. So
  ``state.rng`` and ``state.sampler`` are at most two steps ahead of the
  parent's training.
- Publications. After an epoch's last step the worker copies its model's
  parameters and SGD velocity into the mapping. When the parent takes that
  step's reply, it copies both into its own copy of the model
  (``state.pairs``, ``state.optimizers``); a step that publishes is staged only
  once every earlier publication is taken, so one snapshot serves them all. So
  an epoch callback sees every student as of its epoch, and none moves while
  it runs.
- Evaluation. The detection half, the students' scores of the unlabeled set
  (``trainer._score``), runs in the worker unless the worker's model trains
  both branches. A merged model's step (``one_f_two_c``, ``one_f_two_c_proj``)
  is the heaviest step of any mode, so there the worker is the busier process,
  and the parent runs ``trainer.evaluate_pipeline`` whole on its own models;
  elsewhere the parent, which draws and teacher-scores every step, is the
  busier one. There the parent copies its students into the mapping
  (:meth:`PairWorker.detect`), and the worker, after its steps, copies them
  into its own and scores, then goes on to the staged ones; the parent's
  ``evaluate_pipeline`` call runs the test half and takes the worker's scores
  (:meth:`PairWorker.detection`). In both phases the worker ships scores only:
  AUROC and the two mean scores are computed in the parent, which alone reads
  the hidden seen/unseen flags.

The parent waits on the worker for a slot (the worker reads its step as views
into the slot until it replies), before it stages a step that publishes while
an earlier publication is not taken, for the epoch's last step before the
record (its reports and its publication), and for scores. The worker waits
only when nothing is queued. Either way the results are bit-identical: the
same functions run on the same values, and the random draws keep their order.

Every model is private to the process that holds it; models cross between the
two only as copies into the one anonymous mapping they share, laid out before
the fork, at the points above. It holds one snapshot per shared model: a
parameter vector as long as the teacher's and an SGD velocity, for
pre-training's teacher to score, then the worker's model as attached and as
published, and a parameter vector per parent's student, to score. It also
holds the two slots, each with a step's inputs and the worker's reply for that
step (its model's loss values), and the scores. A command and its reply are
one-byte tokens on two pipes: the slot's digit for a step, ``d`` for scores,
``i`` for the end of pre-training.
A waiter polls its pipe for up to ``_POLL_S``, then blocks; end of file tells
either side that the other is gone. An exception in the worker is raised again
in the parent, with its own type.
"""

from __future__ import annotations

import collections
import contextlib
import mmap
import os
import pickle
import select
import time
import traceback
from dataclasses import fields

import numpy as np

from . import trainer  # looked up at each call, so a worker runs the trainer's functions as they are then
from .config import apply_ablation
from .losses import LossReport
from .models import DualHeadModel, TeacherStudentPair

_POLL_S = 2e-3  # how long a waiter polls its pipe before it blocks
_ALIGN = 64  # byte alignment of every array in the shared mapping
_SLOTS = 2  # steps staged at once: the worker trains one while the parent stages the next
_REPORT_FIELDS = tuple(f.name for f in fields(LossReport))
_INPUTS = ("labeled_x", "labeled_y", "weak_u", "strong_u", "weights")  # the _Step arrays staged, in this order
_TARGETS = ("gate", "pseudo", "p_teacher")  # then these, per role the worker's branches read


def _threads() -> int:
    """Threads of this process as the OS counts them, Python's and native ones such as a BLAS
    pool; 0 where the count cannot be read."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


@contextlib.contextmanager
def attached(config, split, teacher):
    """Run the block with a pair worker for a run of ``config`` on ``split`` whose teacher, not yet
    pre-trained, is ``teacher``, when the conditions above hold; the block gets the worker, else
    None. On exit the worker is stopped and reaped, also when the block raises."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if not hasattr(os, "fork") or len(cpus) < 2 or _threads() != 1:
        yield None
        return
    worker = PairWorker(config, split, teacher)
    try:
        yield worker
    finally:
        worker.close()


class PairWorker:
    """The parent's handle on the forked process that scores pre-training's teachers, then trains
    model ``name`` of the iterations' step plan."""

    def __init__(self, config, split, teacher) -> None:
        self._config, self._unlabeled_x = config, split.unlabeled_x
        self._pipeline = apply_ablation(config.ablation_mode, config)
        self.name, self._branches = list(trainer._step_plan(self._pipeline, config).items())[-1]
        self._roles = tuple(dict.fromkeys(b.role for b in self._branches))  # a merged model reads both roles
        self._staged = _INPUTS + tuple(f"{role}_{t}" for role in self._roles for t in _TARGETS)
        rows = min(config.batch_size, len(split.labeled_x))
        u_rows, classes = config.mu * rows, split.K + 1
        slot = {
            "labeled_x": (np.float64, rows * split.dim),
            "labeled_y": (split.labeled_y.dtype, rows),
            "weak_u": (np.float64, u_rows * split.dim),
            "strong_u": (np.float64, u_rows * split.dim),
            "weights": (np.float64, u_rows),
            **{f"{role}_{t}": (dtype, size) for role in self._roles for t, (dtype, size) in
               zip(_TARGETS, ((np.bool_, u_rows), (np.intp, u_rows), (np.float64, classes * u_rows)))},
            "shapes": (np.int64, 3 * len(self._staged)),  # per staged array: ndim (-1 if absent), rows, columns
            "scalars": (np.float64, 2),  # lr, 1 if the worker publishes its model after the step, else 0
            "reply": (np.float64, 1 + 2 * len(_REPORT_FIELDS)),  # n, then n (field, value)
        }
        size = teacher.flat.size  # a derived model holds part of the teacher's parameters, so no more
        arrays = _mapping({
            **{f"student_{i}": (np.float64, size) for i in range(len(self._pipeline.pairs) - 1)},
            "params": (np.float64, size),  # pre-training's teacher, then the worker's model
            "velocity": (np.float64, size),  # the worker's model's
            **{f"{name}/{i}": spec for i in range(_SLOTS) for name, spec in slot.items()},
            "scores": (np.float64, len(split.unlabeled_x)),
        })
        self._slots = [{name: arrays[f"{name}/{i}"] for name in slot} for i in range(_SLOTS)]
        self._arrays = arrays
        self._model = self._optimizer = None  # the iterations', once attached
        self._shared = [(teacher, arrays["params"])]  # models the worker scores, with their snapshots; there its copies
        self._pending = collections.deque()  # (token, the step or None, whether it publishes)
        self._started = 0  # steps staged so far; step k uses slot k % _SLOTS

        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            self._pid = os.fork()
        except BaseException:
            for fd in fds:
                os.close(fd)
            raise
        cmd_r, self._cmd_w, self._reply_r, reply_w = fds
        if self._pid == 0:  # the worker: serve commands until end of file, then exit
            code = 0
            try:
                os.close(self._cmd_w)
                os.close(self._reply_r)
                os.set_blocking(cmd_r, False)
                self._serve(cmd_r, reply_w, teacher)
            except BaseException as exc:  # noqa: BLE001 - the parent raises it again
                code = 1
                _send_exception(reply_w, exc)
            finally:
                os._exit(code)
        os.close(cmd_r)
        os.close(reply_w)
        os.set_blocking(self._reply_r, False)

    # -- the parent's side --------------------------------------------------

    def attach(self, state) -> None:
        """After pre-training, with ``state``'s pairs just derived: copy model ``name`` and its
        velocity into the mapping, from which the worker copies the model it trains. From here on
        each publication the parent takes is copied into that model of ``state.pairs``."""
        self._model, self._optimizer = state.pairs[self.name].student, state.optimizers[self.name]
        students = [pair.student for other, pair in state.pairs.items() if other != self.name]
        self._shared = [(student, self._arrays[f"student_{i}"]) for i, student in enumerate(students)]
        size = self._model.flat.size
        self._arrays["params"][:size], self._arrays["velocity"][:size] = self._model.flat, self._optimizer.velocity
        self._send(b"i")

    def start(self, step: trainer._Step, lr: float, publish: bool) -> None:
        """Stage ``step`` in the next slot and have the worker train its model on it, then, with
        ``publish``, copy the model into the mapping. First waits for the oldest step when every
        slot is taken (the worker reads a slot until it replies), and with ``publish`` for any
        earlier publication to be taken."""
        while (sum(entry[1] is not None for entry in self._pending) == _SLOTS
               or publish and any(entry[2] for entry in self._pending)):
            self._collect()
        index = self._started % _SLOTS
        slot = self._slots[index]
        arrays = [getattr(step, name) for name in _INPUTS]
        for role in self._roles:
            arrays += step.targets.get(role, (None,) * len(_TARGETS))
        shapes = []
        for name, a in zip(self._staged, arrays):
            shapes += (-1, 0, 0) if a is None else (a.ndim, *a.shape, 0)[:3]
            if a is not None:
                np.copyto(slot[name][: a.size], a.ravel(), casting="no")
        slot["shapes"][:] = shapes
        slot["scalars"][:] = (lr, publish)
        self._started += 1
        self._send(b"%d" % index, step, publish)

    def wait(self, step: trainer._Step) -> None:
        """Wait for the replies up to ``step``'s: each step's report fields go into its report, and
        each publication into this process's model."""
        while any(entry[1] is step for entry in self._pending):
            self._collect()

    def detect(self) -> None:
        """Copy the models the worker scores into their snapshots, in pre-training the teacher, then
        this process's students, and have the worker score the unlabeled set with its copies of them
        (and its own model), the detection half of an evaluation, once the steps started are trained."""
        for model, snapshot in self._shared:
            snapshot[: model.flat.size] = model.flat
        self._send(b"d")

    def detection(self) -> np.ndarray:
        """Wait for the scores :meth:`detect` asked for; a copy of them."""
        while any(entry[0] == b"d" for entry in self._pending):
            self._collect()
        return self._arrays["scores"].copy()

    def close(self) -> None:
        """Stop and reap the worker, and let the mapping go."""
        os.close(self._cmd_w)  # the worker serves what is queued, reads end of file and exits
        os.close(self._reply_r)  # first, or a worker blocked writing a reply or an exception never exits
        os.waitpid(self._pid, 0)
        self._arrays = self._slots = self._shared = None

    def _send(self, token: bytes, step: trainer._Step | None = None, publish: bool = False) -> None:
        try:
            os.write(self._cmd_w, token)
        except BrokenPipeError as exc:
            while self._pending:  # raises what the worker raised, if it did
                self._collect()
            raise ChildProcessError("the pair worker exited") from exc
        self._pending.append((token, step, publish))

    def _collect(self) -> None:
        """Wait for the reply to the oldest command; a step's goes into its report, and the model
        it published, if any, into this process's copy."""
        token, step, publish = self._pending.popleft()
        got = _receive(self._reply_r)
        if got == b"x":
            exc, text = _read_exception(self._reply_r)
            raise exc from ChildProcessError(f"raised in the pair worker:\n{text}")
        if got != token:
            raise ChildProcessError("the pair worker exited")
        if step is not None:
            reply = self._slots[int(token)]["reply"]
            pairs = reply[1 : 1 + 2 * int(reply[0])].reshape(-1, 2)
            trainer._credit(self._config, step.report, {_REPORT_FIELDS[int(i)]: float(v) for i, v in pairs})
        if publish:
            size = self._model.flat.size
            self._model.flat[:] = self._arrays["params"][:size]
            self._optimizer.velocity[:] = self._arrays["velocity"][:size]

    # -- the worker's side --------------------------------------------------

    def _serve(self, cmd_r: int, reply_w: int, teacher: DualHeadModel) -> None:
        cfg, arrays = self._config, self._arrays
        pairs = {"merged": TeacherStudentPair(teacher, teacher)}  # scored; after pre-training the iterations'
        while True:
            token = _receive(cmd_r)
            if token == b"d":  # its copies of the models the parent copied in, and its own model
                for copy, snapshot in self._shared:
                    copy.flat[:] = snapshot[: copy.flat.size]
                arrays["scores"][:] = trainer._score(pairs, "student", self._unlabeled_x, cfg.gamma)[0]
            elif token == b"i":  # pre-training is over: lay out the pairs, with the values the parent attached
                teacher.pretrained = True  # this process's teacher: only its layout is read
                pairs, optimizers = trainer._derive_pairs(teacher, self._pipeline, cfg)
                students = [pair.student for name, pair in pairs.items() if name != self.name]
                self._shared = [(student, arrays[f"student_{i}"]) for i, student in enumerate(students)]
                model, optimizer = pairs[self.name].student, optimizers[self.name]  # the model trained here
                size = model.flat.size
                model.flat[:], optimizer.velocity[:] = arrays["params"][:size], arrays["velocity"][:size]
            elif token:  # a step, staged in slot int(token)
                slot = self._slots[int(token)]
                step, lr, publish = self._step(slot)
                values = trainer._model_step(model, optimizer, self._branches, step, cfg, lr)
                reply = slot["reply"]
                reply[0] = len(values)
                for j, (name, value) in enumerate(values.items()):
                    reply[1 + 2 * j : 3 + 2 * j] = _REPORT_FIELDS.index(name), value
                if publish:
                    arrays["params"][:size], arrays["velocity"][:size] = model.flat, optimizer.velocity
            else:  # end of file: the parent is done, or gone
                return
            os.write(reply_w, token)

    def _step(self, slot: dict[str, np.ndarray]) -> tuple[trainer._Step, float, bool]:
        """The step staged in ``slot``, as views into the mapping, its learning rate and whether the
        model is published after it."""
        shapes, a = slot["shapes"].tolist(), {}
        for name, ndim, rows, columns in zip(self._staged, shapes[::3], shapes[1::3], shapes[2::3]):
            staged = slot[name]
            a[name] = None if ndim < 0 else staged[:rows] if ndim == 1 else staged[: rows * columns].reshape(rows, columns)
        targets = {role: tuple(a[f"{role}_{t}"] for t in _TARGETS) for role in self._roles
                   if a[f"{role}_gate"] is not None}
        lr, publish = slot["scalars"].tolist()
        return trainer._Step(targets=targets, **{name: a[name] for name in _INPUTS}), lr, bool(publish)


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
    """Write b"x", then the pickled ``(exception, traceback text)``, through a buffered file; None
    for an exception that does not pickle. Gives up quietly when the parent is gone."""
    text = traceback.format_exc()
    try:
        payload = pickle.dumps((exc, text))
    except Exception:  # noqa: BLE001 - whatever pickling raises, the text still goes
        payload = pickle.dumps((None, text))
    with contextlib.suppress(OSError), open(fd, "wb", closefd=False) as out:
        out.write(b"x" + payload)


def _read_exception(fd: int) -> tuple[BaseException, str]:
    """The exception after a b"x" token, or a ChildProcessError when it cannot be rebuilt (or is cut short)."""
    os.set_blocking(fd, True)
    try:
        with open(fd, "rb", closefd=False) as stream:
            exc, text = pickle.load(stream)
    except Exception as failure:  # noqa: BLE001 - e.g. a class that no longer imports
        return ChildProcessError(f"the pair worker raised an exception that cannot be rebuilt: {failure!r}"), ""
    return exc if exc is not None else ChildProcessError(f"the pair worker raised:\n{text}"), text
