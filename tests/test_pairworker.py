"""The pair worker: a run that scores pre-training's teachers, trains the plan's last model and,
in every mode but the two merged ones, scores the students in a forked process gives what the
serial run in one process gives, shows its callbacks the same students while the worker trains
ahead, computes every AUROC in this process, leaves no process or descriptor behind, and carries
worker failures home."""

import errno
import json
import os
import pickle
import select
import signal
import subprocess
import sys
import threading
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from dts_ssl import losses, pairworker, trainer
from dts_ssl.benchmarks import benchmark_config, benchmark_split
from dts_ssl.errors import DivergenceError
from dts_ssl.models import load_model, param_hash
from dts_ssl.trainer import apply_ablation, run_training
from test_trainer import one_cpu, tiny_config, tiny_split

TWO_PAIR_MODES = ("full", "no_soft_weighting", "no_logit_match", "no_consistency")
ONE_MODEL_MODES = ("no_its", "no_k1_its", "no_k1_ots", "one_f_two_c", "one_f_two_c_proj", "supervised_only")
# the benchmark task and seeds on a shorter schedule: two iterations, so that the teachers refresh
SHORT = dict(iterations=2, epochs_per_iteration=6)

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2
    or pairworker._threads() != 1,
    reason="the pair worker needs fork, two CPUs and a one-thread process (BLAS on one thread)",
)


class WorkerFailure(Exception):
    """Raised inside the worker; module-level, so that it pickles."""


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes run_training forks."""
    pids, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def serial(run):
    """``run()`` on one CPU, where no worker starts."""
    with one_cpu():
        return run()


def reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def descriptors() -> list[str]:
    """This process's open file descriptors."""
    return sorted(os.listdir("/proc/self/fd"))


def run_files(out_dir):
    """The bytes of every file of a run directory, checkpoints included."""
    return {p.relative_to(out_dir).as_posix(): p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()}


def aborted(run_dir, names) -> dict:
    """The teacher and student of each pair named, as ``checkpoints/aborted.npz`` holds them, by
    ``(name, role)``; the file holds nothing else."""
    path = run_dir / "checkpoints" / "aborted.npz"
    with np.load(path) as archive:
        assert {k.split("/")[0] for k in archive.files} == {"__meta__"} | {f"{n}_{r}" for n in names
                                                                          for r in ("teacher", "student")}
    return {(n, r): load_model(path, f"{n}_{r}") for n in names for r in ("teacher", "student")}


def replied_ahead(state) -> bool:
    """Inside an epoch callback on the worker path: whether the worker replies to the next epoch's
    first step before the callback returns. Every reply up to the epoch's end has been taken, so
    the next one on the pipe is that step's; waits up to 10 s for it, without taking it."""
    worker = state.worker
    assert worker._pending and worker._pending[0][1] is not None  # a step, staged before the callback
    return bool(select.select([worker._reply_r], [], [], 10.0)[0])


def assert_same_run(config, split, tmp_path, forks, **callbacks):
    worker = run_training(config, split, out_dir=tmp_path / "worker", **callbacks)
    assert len(forks) == 1 and reaped(forks[0])
    alone = serial(lambda: run_training(config, split, out_dir=tmp_path / "serial", **callbacks))
    assert len(forks) == 1  # the serial run forked nothing
    assert json.dumps(worker.history) == json.dumps(alone.history)
    assert json.dumps(worker.final_eval.as_dict()) == json.dumps(alone.final_eval.as_dict())
    for name, pair in alone.pairs.items():
        for role in ("teacher", "student"):
            assert param_hash(getattr(worker.pairs[name], role)) == param_hash(getattr(pair, role)), (name, role)
    assert run_files(tmp_path / "worker") == run_files(tmp_path / "serial")
    return worker, alone


@pytest.mark.parametrize("mode", TWO_PAIR_MODES + ONE_MODEL_MODES)
def test_worker_run_equals_serial_run(mode, tmp_path, forks):
    assert_same_run(tiny_config(mode), tiny_split(), tmp_path, forks)


@pytest.mark.parametrize("batch_size", (8, 24))  # three steps an epoch, and one
@pytest.mark.parametrize("mode", ("full", "no_its"))
def test_worker_run_equals_serial_run_at_other_step_counts(mode, batch_size, tmp_path, forks):
    # under a cosine schedule each epoch has its own learning rate, which a step staged during the
    # previous epoch carries; at one step an epoch, the next epoch's step publishes too, so it is
    # staged only once this epoch's publication is taken
    config = tiny_config(mode, batch_size=batch_size, lr_schedule="cosine", eval_every=2)
    assert_same_run(config, tiny_split(), tmp_path, forks)


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("mode", TWO_PAIR_MODES + ONE_MODEL_MODES)
def test_worker_run_equals_serial_run_on_the_benchmark(mode, seed, tmp_path, forks):
    assert_same_run(benchmark_config(mode, seed, **SHORT), benchmark_split(seed), tmp_path, forks)


@pytest.mark.parametrize("mode", ("full", "no_its"))
def test_worker_run_equals_serial_run_with_unevaluated_epochs_and_score_dumps(mode, tmp_path, forks):
    # epochs 3 and 6 of each iteration evaluate; each writes a score dump from the worker's scores,
    # after the 50 that pre-training writes, one an epoch, from the worker's scores of its teacher.
    # Every train epoch, evaluated or not, writes its gate record, byte-equal to the serial run's
    config = benchmark_config(mode, 0, eval_every=3, dump_scores=True, **SHORT)
    worker, _ = assert_same_run(config, benchmark_split(0), tmp_path, forks)
    assert [np.isfinite(r["auroc"]) for r in worker.history[config.pretrain_epochs:]] == [False, False, True] * 4
    assert len(list((tmp_path / "worker" / "score_dumps").iterdir())) == config.pretrain_epochs + 4 == 54
    records = {path: data for path, data in run_files(tmp_path / "worker").items() if path.startswith("gate_record/")}
    assert sorted(records) == [f"gate_record/epoch_{e:05d}.csv" for e in range(50, 62)]
    assert records == {path: (tmp_path / "serial" / path).read_bytes() for path in records}


@pytest.mark.parametrize("mode", ("full", "no_k1_ots", "one_f_two_c_proj"))
def test_per_sample_outputs_leave_the_history_unchanged(mode, tmp_path, forks):
    # with dump_scores on, both paths write the score dumps and the gate record, and the history
    # is the one a run with it off gives
    histories = []
    for dump in (False, True):
        for path, run in (("worker", lambda f: f()), ("serial", serial)):
            out = tmp_path / f"{path}-{dump}"
            result = run(lambda: run_training(tiny_config(mode, dump_scores=dump), tiny_split(), out_dir=out))
            histories.append(json.dumps(result.history))
            assert (out / "gate_record").is_dir() == (out / "score_dumps").is_dir() == dump
    assert len(forks) == 2 and all(map(reaped, forks))
    assert len(set(histories)) == 1


@pytest.mark.parametrize("mode", TWO_PAIR_MODES + ONE_MODEL_MODES)
def test_worker_trains_ahead_of_a_slow_epoch_callback(mode, tmp_path, forks):
    # the callback sleeps 5-20 ms; meanwhile the worker trains the next epoch's first step on its
    # private copy, and the run still equals the serial one, file for file
    ahead = []

    def slow(state, record):
        time.sleep(0.005 + 0.005 * (record["global_epoch"] % 4))
        if state.worker is not None and record["epoch"] < config.epochs_per_iteration - 1:
            ahead.append(replied_ahead(state))

    config = benchmark_config(mode, 0, **SHORT)
    assert_same_run(config, benchmark_split(0), tmp_path, forks, epoch_callback=slow)
    # every epoch but a phase's last stages the next epoch's first step before its callback
    assert ahead == [True] * (config.iterations * (config.epochs_per_iteration - 1))


@pytest.mark.parametrize("mode", ("full", "no_its", "no_k1_its"))
def test_aborted_checkpoints_hold_the_published_epoch(mode, tmp_path, forks):
    # the callback of train epoch 3 raises once the worker's model is ahead of this process's copy
    # of it; the aborted checkpoint holds epoch 3 all the same, as on the serial path
    seen = []

    def failing(state, record):
        if record["epoch"] == 3:
            assert state.worker is None or replied_ahead(state)
            seen.append({(name, role): param_hash(getattr(pair, role))
                         for name, pair in state.pairs.items() for role in ("teacher", "student")})
            raise KeyError("stop at epoch 3")

    config, split = benchmark_config(mode, 0, **SHORT), benchmark_split(0)
    for out, run in (("worker", lambda f: f()), ("serial", serial)):
        with pytest.raises(KeyError, match="stop at epoch 3"):
            run(lambda: run_training(config, split, out_dir=tmp_path / out, epoch_callback=failing))
    assert len(forks) == 1 and reaped(forks[0])
    files = run_files(tmp_path / "worker")
    assert files == run_files(tmp_path / "serial")
    assert sorted(p for p in files if p.startswith("checkpoints/")) == ["checkpoints/aborted.npz"]
    names = [name for name, _ in apply_ablation(mode, config).pairs]
    assert {key: param_hash(model) for key, model in aborted(tmp_path / "worker", names).items()} == seen[0]
    assert seen[0] == seen[1]


@pytest.mark.parametrize("steps_too", (False, True))
@pytest.mark.parametrize("mode", TWO_PAIR_MODES + ONE_MODEL_MODES)
def test_callbacks_see_the_students_of_their_step(mode, steps_too):
    # the worker trains the plan's last model; every epoch callback sees it as of the epoch
    # reported, and it does not move while the callback runs, though the worker trains the next
    # epoch meanwhile. A run with a step callback starts no worker and trains serially, so its
    # epoch callbacks see the students that the worker run's epoch callbacks see
    def watched(steps_too):
        seen, steps = [], []

        def hashes(state):
            return [param_hash(pair.student) for pair in state.pairs.values()]

        def on_step(state, report):
            assert state.worker is None
            steps.append((state.global_epoch, hashes(state)))

        def on_epoch(state, record):
            before = hashes(state)
            time.sleep(0.005)
            seen.append((state.global_epoch, before, param_hash(list(state.pairs.values())[-1].student)))

        run_training(tiny_config(mode), tiny_split(), step_callback=on_step if steps_too else None,
                     epoch_callback=on_epoch)
        return seen, steps

    seen, steps = watched(steps_too)
    assert (seen, steps) == serial(lambda: watched(steps_too))
    assert len(seen) == 6 and all(before[-1] == after for _, before, after in seen)
    assert bool(steps) == steps_too
    if steps_too:
        assert seen == watched(False)[0]


@pytest.mark.parametrize("mode", ("full", "no_its", "one_f_two_c_proj"))
def test_no_model_shares_memory_with_the_mapping(mode, forks):
    # every model is private to its process: the worker's model comes into this process's copy and
    # this process's students go to the worker as copies, so at every epoch callback no parameter
    # vector or velocity of the state is a view into the arrays the two processes share
    shared = []

    def on_epoch(state, record):
        mapped = state.worker._arrays.values()
        arrays = [getattr(pair, role).flat for pair in state.pairs.values() for role in ("teacher", "student")]
        arrays += [optimizer.velocity for optimizer in state.optimizers.values()]
        shared.append([np.shares_memory(a, m) for a in arrays for m in mapped])

    config = tiny_config(mode)
    run_training(config, tiny_split(), epoch_callback=on_epoch)
    assert len(forks) == 1 and reaped(forks[0])
    assert len(shared) == config.iterations * config.epochs_per_iteration and shared[0]
    assert not any(map(any, shared))


@pytest.mark.parametrize("mode", ("full", "no_its", "one_f_two_c"))
def test_worker_model_starts_from_the_state_this_process_derived(mode, tmp_path, forks, monkeypatch):
    # every derived student is perturbed and its velocity starts nonzero; the worker takes its
    # model from what this process attached, not from a derivation of its own, so the worker run
    # still equals the serial run. pairworker is imported above, before the patch, so a name it
    # bound to _derive_pairs would still reach the original
    derive = trainer._derive_pairs

    def perturbed(*args):
        pairs, optimizers = derive(*args)
        for name, pair in pairs.items():
            pair.student.flat += 1e-3
            optimizers[name].velocity[:] = 1e-3 * pair.student.flat
        return pairs, optimizers

    monkeypatch.setattr(trainer, "_derive_pairs", perturbed)
    assert_same_run(tiny_config(mode), tiny_split(), tmp_path, forks)


def test_result_pickles_bit_exactly(tmp_path, forks):
    worker, alone = assert_same_run(tiny_config(), tiny_split(), tmp_path, forks)
    assert pickle.dumps(worker) == pickle.dumps(alone)
    again = pickle.loads(pickle.dumps(worker))
    assert json.dumps(again.history) == json.dumps(worker.history)
    for name, pair in worker.pairs.items():
        for role in ("teacher", "student"):
            model = getattr(pair, role)
            assert param_hash(getattr(again.pairs[name], role)) == param_hash(model)
            # every model owns its parameter vector: none was ever a view into the shared mapping
            assert model.flat.base is None
            assert all(np.shares_memory(v, model.flat) for v in model.params.values())


@pytest.mark.parametrize("mode, in_worker", (("full", True), ("no_its", True), ("no_k1_its", True),
                                             ("no_k1_ots", True), ("supervised_only", True),
                                             ("one_f_two_c", False)))
def test_every_evaluation_is_one_evaluate_pipeline_call(mode, in_worker, forks, monkeypatch):
    # pre-training evaluates each epoch with the worker's scores of its teacher; each iteration
    # evaluates epochs 2 and 3 of 3, taking the worker's detection half unless the worker's model
    # trains both branches (one_f_two_c), whose step is the heaviest of any mode
    calls, evaluate = [], trainer.evaluate_pipeline

    def counted(*args, **kwargs):
        calls.append(kwargs.get("detection") is not None)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(trainer, "evaluate_pipeline", counted)
    config = tiny_config(mode, eval_every=2)
    run_training(config, tiny_split())
    assert len(forks) == 1 and reaped(forks[0])
    assert calls == [True] * config.pretrain_epochs + [in_worker] * (2 * config.iterations)


def test_the_run_state_is_freed_with_its_worker(forks):
    # run_training sets the state's worker after attaching it and clears it once the run is done;
    # the handle holds no reference to the state, so the last reference to the state frees it and
    # its arrays at once, without waiting for a collection that would grow the peak RSS
    states = []
    run_training(tiny_config(), tiny_split(), epoch_callback=lambda state, record: states.append(state))
    assert len(forks) == 1 and reaped(forks[0])
    last = weakref.ref(states[-1])
    assert last().worker is None
    states.clear()
    assert last() is None


def test_a_raising_epoch_callback_leaves_no_worker_on_the_state(forks):
    # the worker trains while the callback runs; when the callback raises, the run clears the
    # state's worker and reaps the process on the way out
    states = []

    def failing(state, record):
        states.append((state, state.worker))
        raise KeyError("stop")

    with pytest.raises(KeyError, match="stop"):
        run_training(tiny_config(), tiny_split(), epoch_callback=failing)
    ((state, worker),) = states
    assert worker is not None and state.worker is None
    assert len(forks) == 1 and reaped(forks[0])


def test_one_model_plan_forks_a_worker_one_cpu_and_other_threads_fork_none(forks):
    split = tiny_split()
    run_training(tiny_config("no_its"), split)
    assert len(forks) == 1 and reaped(forks[0])
    serial(lambda: run_training(tiny_config("no_its"), split))
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        run_training(tiny_config(), split)
    finally:
        stop.set()
        other.join()
    assert len(forks) == 1


def test_raising_step_callback_leaves_no_process(forks):
    # a run with a step callback trains serially, so no worker outlives a callback that raises
    def on_step(state, report):
        assert state.worker is None
        if state.iteration == 1:
            raise KeyError("stop")

    with pytest.raises(KeyError):
        run_training(tiny_config(), tiny_split(), step_callback=on_step)
    assert forks == []


def test_worker_exception_is_raised_with_its_type(tmp_path, forks, monkeypatch):
    calls = []
    unseen = losses.unseen_loss_and_grad

    def failing(*args):  # the unseen term trains only the outlier student, in the worker
        calls.append(1)
        if len(calls) == 3:
            raise WorkerFailure("third unseen term")
        return unseen(*args)

    monkeypatch.setattr(losses, "unseen_loss_and_grad", failing)
    with pytest.raises(WorkerFailure, match="third unseen term") as caught:
        run_training(tiny_config(), tiny_split(), out_dir=tmp_path)
    assert "raised in the pair worker" in str(caught.value.__cause__)
    assert calls == []  # the parent never trained the outlier student
    assert len(forks) == 1 and reaped(forks[0])
    assert [p.name for p in (tmp_path / "checkpoints").iterdir()] == ["aborted.npz"]
    aborted(tmp_path, ("inlier", "outlier"))


def test_worker_exception_in_pre_training_is_raised_with_its_type(tmp_path, forks, monkeypatch):
    # in pre-training only the worker scores: the teacher's steps read no unlabeled data, and this
    # process evaluates each epoch on the worker's scores
    calls, scores = [], trainer.scores_from_probs

    def failing(*args):
        calls.append(1)
        if len(calls) == 3:
            raise WorkerFailure("third pre-training score")
        return scores(*args)

    monkeypatch.setattr(trainer, "scores_from_probs", failing)
    before = descriptors()
    with pytest.raises(WorkerFailure, match="third pre-training score") as caught:
        run_training(tiny_config(), tiny_split(), out_dir=tmp_path)
    assert "raised in the pair worker" in str(caught.value.__cause__)
    assert calls == []  # this process scored no pre-training epoch
    assert len(forks) == 1 and reaped(forks[0])
    assert descriptors() == before
    assert not (tmp_path / "checkpoints").exists()  # no pair was derived, as on the serial path


@pytest.mark.parametrize("call, nth", (("fork", 1), ("pipe", 2)))
def test_failed_fork_raises_and_leaves_no_descriptor(call, nth, monkeypatch):
    # the fork fails, or the second pipe: the pipes made before it are closed
    calls, real = [], getattr(os, call)

    def failing():
        calls.append(call)
        if len(calls) == nth:
            raise OSError(errno.EMFILE, f"{call}: too many open files")
        return real()

    monkeypatch.setattr(os, call, failing)
    before = descriptors()
    with pytest.raises(OSError, match="too many open files"):
        run_training(tiny_config(), tiny_split())
    assert descriptors() == before and len(calls) == nth


@pytest.mark.parametrize("mode", TWO_PAIR_MODES + ONE_MODEL_MODES)
def test_auroc_and_the_flags_stay_in_this_process(mode, forks, monkeypatch):
    # the worker ships scores only; every AUROC, and so every read of the hidden seen/unseen flags,
    # is this process's, in pre-training and in the iterations
    pid, auroc = os.getpid(), trainer.compute_auroc

    def here_only(*args):
        if os.getpid() != pid:
            raise WorkerFailure("compute_auroc ran in the worker")
        return auroc(*args)

    monkeypatch.setattr(trainer, "compute_auroc", here_only)
    result = run_training(tiny_config(mode), tiny_split())
    assert len(forks) == 1 and reaped(forks[0])
    assert all(np.isfinite(r["auroc"]) for r in result.history)


def test_worker_exception_that_does_not_pickle_arrives_as_text(forks, monkeypatch):
    class Local(Exception):  # a local class does not pickle
        pass

    def failing(*args):
        raise Local("not picklable")

    monkeypatch.setattr(losses, "unseen_loss_and_grad", failing)
    with pytest.raises(ChildProcessError, match="Local: not picklable"):
        run_training(tiny_config(), tiny_split())
    assert len(forks) == 1 and reaped(forks[0])


@pytest.mark.parametrize("cut", [None, 0, 10, -1])
def test_an_exception_payload_arrives_whole_or_as_a_child_process_error(cut):
    # b"x", then one pickle stream; a payload cut short at any point is a ChildProcessError, as is
    # bytes that do not unpickle
    r, w = os.pipe()
    try:
        try:
            raise WorkerFailure("boom")
        except WorkerFailure as exc:
            pairworker._send_exception(w, exc)
        message = os.read(r, 1 << 16)
        assert message[:1] == b"x"
        os.set_blocking(r, False)  # as the parent's reply pipe is
        os.write(w, message[1:] if cut is None else message[1:cut] or b"not a pickle")
        os.close(w)
        w = None
        exc, text = pairworker._read_exception(r)
    finally:
        os.close(r)
        if w is not None:
            os.close(w)
    if cut is None:
        assert type(exc) is WorkerFailure and str(exc) == "boom" and "WorkerFailure: boom" in text
    else:
        assert type(exc) is ChildProcessError and "cannot be rebuilt" in str(exc) and text == ""


def test_failure_here_while_the_worker_sends_a_large_exception_does_not_hang():
    # this process fails in its own model's step while the worker's exception payload, far larger
    # than a pipe buffer, waits to be written; closing the worker must not wait for that write.
    # Run in a subprocess, so that a hang fails the test instead of the suite
    script = """
import os
from dts_ssl import losses
from dts_ssl.trainer import run_training
from test_trainer import tiny_config, tiny_split

parent = os.getpid()
unseen = losses.unseen_loss_and_grad

def here(*args):  # the inlier student's logit match trains in this process
    raise KeyError("failed here")

def there(*args):  # the outlier student's unseen term trains in the worker
    if os.getpid() != parent:
        raise RuntimeError("x" * 1_000_000)
    return unseen(*args)

losses.logit_match_loss_and_grad, losses.unseen_loss_and_grad = here, there
try:
    run_training(tiny_config(), tiny_split())
except KeyError as exc:
    print("raised", exc)
"""
    path = os.pathsep.join((str(Path(pairworker.__file__).parents[1]), str(Path(__file__).parent)))
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "raised 'failed here'\n"), done.stderr


def test_dead_worker_is_reported_and_reaped(tmp_path, forks):
    def on_epoch(state, record):
        if record["phase"] == "train":
            os.kill(forks[0], signal.SIGKILL)

    with pytest.raises(ChildProcessError, match="pair worker exited"):
        run_training(tiny_config(), tiny_split(), out_dir=tmp_path, epoch_callback=on_epoch)
    assert reaped(forks[0])
    aborted(tmp_path, ("inlier", "outlier"))


@pytest.mark.parametrize("mode, lr, where", (
    ("full", 1e6, "phase train, iteration 0, global epoch 56"),
    ("no_its", 1e6, "phase train, iteration 0, global epoch 56"),
    ("no_k1_its", 1e6, "phase train, iteration 0, global epoch 56"),
    ("full", 1e8, "phase pretrain, iteration -1, global epoch 32"),
))
def test_divergence_raises_the_same_error_on_both_paths(mode, lr, where, tmp_path, forks):
    # tanh at lr=1e6 sends the students' parameters to non-finite values in global epoch 56, the
    # first of iteration 0, while every loss value stays finite; at lr=1e8 the teacher's go in
    # pre-training, and no pair is derived. Either path raises before that epoch's evaluation
    config, split = benchmark_config(mode, 0, activation="tanh", lr=lr), benchmark_split(0)
    caught = []
    for out, run in (("worker", lambda f: f()), ("serial", serial)):
        with warnings.catch_warnings(), pytest.raises(DivergenceError) as error:
            warnings.simplefilter("ignore", RuntimeWarning)
            run(lambda: run_training(config, split, out_dir=tmp_path / out))
        caught.append(error.value)
    assert str(caught[0]) == str(caught[1]) and f"training diverged in {where}: " in str(caught[0])
    assert caught[0].__cause__ is None
    assert len(forks) == 1 and reaped(forks[0])
    assert run_files(tmp_path / "worker") == run_files(tmp_path / "serial")
    if "pretrain" in where:
        assert "students ['merged']" in str(caught[0]) and run_files(tmp_path / "worker") == {}
    else:
        aborted(tmp_path / "worker", [name for name, _ in apply_ablation(mode, config).pairs])


@pytest.mark.parametrize("mode", ("full", "no_its"))
def test_overflowing_scores_raise_the_same_divergence_error_on_both_paths(mode, forks):
    # relu at lr=1e6 keeps every parameter and loss field finite while the teacher's scores of
    # pre-training epoch 13 overflow; the record refuses them before AUROC reads them. With the
    # worker that record is made one epoch late, and it still names epoch 13
    config, split = benchmark_config(mode, 0, activation="relu", lr=1e6), benchmark_split(0)
    caught = []
    for step_callback in (None, lambda state, report: None):  # a step callback starts no worker
        with warnings.catch_warnings(), pytest.raises(DivergenceError) as error:
            warnings.simplefilter("ignore", RuntimeWarning)
            run_training(config, split, step_callback=step_callback)
        caught.append(str(error.value))
    assert len(forks) == 1 and reaped(forks[0])
    assert caught == ["training diverged in phase pretrain, iteration -1, global epoch 13: "
                      "2000 non-finite evaluation scores of 2000"] * 2
