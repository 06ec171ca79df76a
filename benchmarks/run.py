"""End-to-end benchmark of stmtmem: training and ensemble decoding.

    python3 benchmarks/run.py --workload train --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists):
  train            `stmtmem train` rounds, positional statements, constant_q
  train-eos-sv     the same with EOS statements and the summary_vector query
  decode-ensemble  `stmtmem predict` (two-member mean-softmax ensemble) and
                   `stmtmem evaluate` rounds over distinct held-out samples

Every program call goes through `stmtmem.cli.main`, in this process. The
seed makes the corpus (and, for training, the model init), so the same seed
gives the same inputs. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, `--trace 1` its per-layer metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import common  # noqa: E402
import tracing  # noqa: E402

TRAIN_EPOCHS_PER_ROUND = 3
TRAIN_SETUP_REPEATS = 25
DECODE_SETUP_REPEATS = 5
DECODE_ROUND_SAMPLES = 8
MIN_DECODE_ROUNDS = 2      # per-sample counts cover these rounds' samples
CHECK_SAMPLES = 6           # samples replayed and re-decoded with swapped members
GRADIENT_COORDINATES = 12
FD_STEP = 1e-5
SETUP_LAYERS = ("synthetic.generate_ms", "corpus.prepare_ms")


def cli(*argv: str) -> int:
    """One in-process `stmtmem` command; its console output is dropped. An
    exception that escapes the program is printed and counts as a failure."""
    from stmtmem.cli import main
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return main(list(argv))
    except Exception:  # noqa: BLE001 - the operation fails, the run goes on
        traceback.print_exc()
        return -1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Speedometer:
    """How fast this machine runs right now, against its reference speed.

    On a shared machine the speed one process gets can halve and recover
    within a second. While `measure()` is active, an interval
    timer interrupts the work every `period_s` and runs a fixed GRU-like loop
    of small numpy calls (the mix the program spends its time on), timing
    it. The loop samples the same slow and fast moments as the work, and
    its time is taken out of the work's time.
    """

    STEPS = 50
    REFERENCE_STEPS_PER_S = 50000.0

    def __init__(self, period_s: float):
        self.period_s = period_s
        rng = np.random.default_rng(0)
        self._w = rng.standard_normal((16, 48)) * 0.3
        self._u = rng.standard_normal((16, 48)) * 0.3
        self._xs = rng.standard_normal((96, 1, 16))
        self.steps = 0
        self.seconds = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        w, u, xs = self._w, self._u, self._xs
        start = time.perf_counter()
        h = np.zeros((1, 16))
        for t in range(self.STEPS):
            a = xs[t % 96] @ w + h @ u
            z = 1.0 / (1.0 + np.exp(-a[:, :16]))
            r = 1.0 / (1.0 + np.exp(-a[:, 16:32]))
            hbar = np.tanh(a[:, 32:] + r * h)
            h = z * h + (1.0 - z) * hbar
        self.seconds += time.perf_counter() - start
        self.steps += self.STEPS

    def measure(self, fn, *args):
        """Call fn(*args) with the timer running; returns its result and
        the wall seconds it took, leaving out the loop's own time."""
        seconds = self.seconds
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        if self.steps == 0:
            self._tick()
        return result, elapsed - (self.seconds - seconds)

    def factor(self) -> float:
        """Reference speed over measured speed: above 1 on a slow machine."""
        return self.REFERENCE_STEPS_PER_S * self.seconds / self.steps


class Run:
    """Counts, timings and check failures of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.work_s = 0.0
        self.work_units = 0
        self.errors: list[str] = []
        self.peak_rss_mb = 0.0
        # Set-up calls last tens of milliseconds, so they are sampled more often.
        self.setup_speed = Speedometer(period_s=0.005)
        self.work_speed = Speedometer(period_s=0.02)

    def fail(self, what: str, errors) -> None:
        self.errors.extend(f"{what}: {e}" for e in errors)


# -- training workloads --------------------------------------------------------

def teacher_forcing_pairs(dataset_path: str, comlen: int) -> int:
    """Pairs per epoch: each summary of k kept tokens gives k + 1 pairs."""
    return sum(min(len(tokens), comlen - 2) + 1
               for tokens in checks.read_references(dataset_path).values())


def run_training(run: Run, work: str, seed: int, seconds: float, tracer,
                 encoder: dict) -> None:
    cfg = common.write_config(os.path.join(work, "run.json"), work, encoder,
                              common.TRAIN_CORPUS, common.TRAIN_SPLIT, seed,
                              TRAIN_EPOCHS_PER_ROUND)
    for _ in range(TRAIN_SETUP_REPEATS):
        status, elapsed = run.setup_speed.measure(cli, "prepare", "--config", cfg)
        if status != 0:
            raise SystemExit(f"prepare failed with exit code {status}")
        run.setup_s.append(elapsed)
    pairs = teacher_forcing_pairs(os.path.join(work, "train.tsv"), common.MODEL["comlen"])

    start = time.perf_counter()
    while run.attempted == 0 or time.perf_counter() - start < seconds:
        status, elapsed = run.work_speed.measure(cli, "train", "--config", cfg)
        run.attempted += TRAIN_EPOCHS_PER_ROUND
        if status != 0:
            run.failed += TRAIN_EPOCHS_PER_ROUND
            continue
        run.work_s += elapsed
        run.work_units += pairs * TRAIN_EPOCHS_PER_ROUND
        with open(os.path.join(work, "train.log"), encoding="utf-8") as fh:
            run.fail("training log", checks.check_training_log(fh.read()))
    run.peak_rss_mb = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    if run.failed < run.attempted:
        run.fail("gradient", checks.check_gradient(*gradients(work, seed)))


def first_batch(work: str, config, code_vocab, sum_vocab):
    """The first `config.batch` teacher-forcing pairs of the training split,
    in file order: encoded samples, prefix rows and targets."""
    from stmtmem.corpus import encode_sample, read_dataset
    encoded, rows, targets = [], [], []
    for sample in read_dataset(os.path.join(work, "train.tsv")):
        enc = encode_sample(sample, code_vocab, sum_vocab, config)
        ids = enc.summary_ids
        for k in range(1, int(np.flatnonzero(ids == checks.EOS_ID)[0]) + 1):
            row = np.zeros_like(ids)
            row[:k] = ids[:k]
            encoded.append(enc)
            rows.append(row)
            targets.append(int(ids[k]))
        if len(targets) >= config.batch:
            break
    n = config.batch
    return encoded[:n], rows[:n], np.array(targets[:n])


def gradients(work: str, seed: int) -> tuple[dict, dict]:
    """Backward's gradient of the mean cross-entropy on the first training
    batch, at the run's checkpoint, and central differences of that loss on
    a seeded sample of coordinates."""
    from stmtmem import tensor as T
    from stmtmem.corpus import Vocabulary
    from stmtmem.model import _forward_batch, batch_inputs
    from stmtmem.params import load_checkpoint

    config, params = load_checkpoint(os.path.join(work, "model.ckpt"))
    code_vocab = Vocabulary.load(os.path.join(work, "code.vocab"))
    sum_vocab = Vocabulary.load(os.path.join(work, "summary.vocab"))
    encoded, rows, targets = first_batch(work, config, code_vocab, sum_vocab)
    inputs = batch_inputs(encoded, summary_rows=rows)

    def loss():
        dists, _ = _forward_batch(inputs, params, config)
        return T.mean_all(T.cross_entropy(dists, targets))

    params.zero_grads()
    loss().backward()
    grads = {name: t.grad.copy() for name, t in params.items() if t.grad is not None}
    numeric = {}
    for name, index in checks.sample_coordinates(grads, GRADIENT_COORDINATES, seed):
        flat = params[name].data.reshape(-1)
        original = flat[index]
        with T.no_grad():
            flat[index] = original + FD_STEP
            up = loss().item()
            flat[index] = original - FD_STEP
            down = loss().item()
        flat[index] = original
        numeric[(name, index)] = (up - down) / (2 * FD_STEP)
    return grads, numeric


# -- decoding workload ---------------------------------------------------------

MEMBER_FILES = ("code.vocab", "summary.vocab") + tuple(
    f"{name}.ckpt" for name, _, _ in common.MEMBERS)


def obtain_members(dest: str) -> list[str]:
    """Copy the kept members into the run and check that they load and
    match their vocabularies; returns the checkpoint paths."""
    from stmtmem import params as params_module
    os.makedirs(dest, exist_ok=True)
    for name in MEMBER_FILES:
        shutil.copyfile(os.path.join(common.MEMBERS_DIR, name), os.path.join(dest, name))
    sizes = {}
    for vocab in ("code", "summary"):
        with open(os.path.join(dest, f"{vocab}.vocab"), encoding="utf-8") as fh:
            sizes[vocab] = len(fh.read().splitlines())
    paths = [os.path.join(dest, f"{name}.ckpt") for name, _, _ in common.MEMBERS]
    for path in paths:
        config, _ = params_module.load_checkpoint(path)
        if (config.code_vocab_size, config.summary_vocab_size) != (sizes["code"], sizes["summary"]):
            raise SystemExit(f"{path} does not match the kept vocabularies; "
                             "remake the members with make_members.py")
    return paths


def run_decode(run: Run, work: str, seed: int, seconds: float, tracer) -> None:
    members = os.path.join(work, "members")
    cfg = common.write_config(os.path.join(work, "prepare.json"), work, common.POSITIONAL,
                              common.DECODE_CORPUS, common.DECODE_SPLIT, seed, 1)

    def setup():
        status = cli("prepare", "--config", cfg)
        if status != 0:
            raise SystemExit(f"prepare failed with exit code {status}")
        return obtain_members(members)

    for _ in range(DECODE_SETUP_REPEATS):
        checkpoints, elapsed = run.setup_speed.measure(setup)
        run.setup_s.append(elapsed)

    with open(os.path.join(work, "test.tsv"), encoding="utf-8") as fh:
        held_out = fh.read().splitlines(keepends=True)
    rounds = [held_out[i:i + DECODE_ROUND_SAMPLES]
              for i in range(0, len(held_out) - DECODE_ROUND_SAMPLES + 1, DECODE_ROUND_SAMPLES)]

    def round_config(name: str, lines: list[str]) -> str:
        test = os.path.join(work, f"{name}.tsv")
        with open(test, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        return common.write_config(
            os.path.join(work, f"{name}.json"), work, common.POSITIONAL, None,
            common.DECODE_SPLIT, seed, 1, test=test,
            code_vocab=os.path.join(members, "code.vocab"),
            summary_vocab=os.path.join(members, "summary.vocab"),
            predictions=os.path.join(work, f"{name}.preds"),
            report=os.path.join(work, f"{name}.txt"))

    ensemble = [arg for path in checkpoints for arg in ("--checkpoint", path)]
    done = []
    start = time.perf_counter()
    for k, lines in enumerate(rounds):
        if k >= MIN_DECODE_ROUNDS and time.perf_counter() - start >= seconds:
            break
        cfg_k = round_config(f"round{k:03d}", lines)
        status, elapsed = run.work_speed.measure(predict_and_evaluate, cfg_k, ensemble)
        run.attempted += len(rounds[k])
        if status != 0:
            run.failed += len(rounds[k])
            continue
        run.work_s += elapsed
        run.work_units += len(rounds[k])
        done.append(k)
    run.peak_rss_mb = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()

    decoded_ids = []
    for k in done:
        name = os.path.join(work, f"round{k:03d}")
        preds = checks.read_predictions(name + ".preds")
        refs = checks.read_references(name + ".tsv")
        with open(name + ".txt.json", encoding="utf-8") as fh:
            report = json.load(fh)
        run.fail(f"round {k} scores", checks.check_report(preds, refs, report))
        run.fail(f"round {k} predictions", checks.check_prediction_shape(preds))
        decoded_ids.extend(refs)
    if len(set(decoded_ids)) != len(decoded_ids):
        run.fail("held-out split", ["a sample was decoded twice"])
    if done:
        run.fail("greedy replay", replay_greedy(work, members, checkpoints, done[0]))
        run.fail("member order", swap_members(work, rounds[done[0]], done[0], round_config,
                                              checkpoints))


def predict_and_evaluate(cfg: str, ensemble: list[str]) -> int:
    status = cli("predict", "--config", cfg, *ensemble)
    return status if status != 0 else cli("evaluate", "--config", cfg)


def replay_greedy(work: str, members: str, checkpoints: list[str], k: int) -> list[str]:
    """Replay the first CHECK_SAMPLES predictions of round k from the
    members' `predict_dist` outputs."""
    from stmtmem.corpus import Vocabulary, read_dataset, encode_sample
    from stmtmem.decoding import LoadedModel
    from stmtmem.params import load_checkpoint

    code_vocab = Vocabulary.load(os.path.join(members, "code.vocab"))
    sum_vocab = Vocabulary.load(os.path.join(members, "summary.vocab"))
    models = [LoadedModel(params, config) for config, params in map(load_checkpoint, checkpoints)]
    name = os.path.join(work, f"round{k:03d}")
    preds = checks.read_predictions(name + ".preds")
    errors = []
    for sample in read_dataset(name + ".tsv")[:CHECK_SAMPLES]:
        encs = [encode_sample(sample, code_vocab, sum_vocab, m.config) for m in models]

        def member_dists(prefix, encs=encs):
            return [m.predict_dist(e, prefix)[0] for m, e in zip(models, encs)]

        errors += [f"{sample.sample_id}: {e}" for e in
                   checks.check_greedy(preds[sample.sample_id], sum_vocab.token_to_id,
                                       member_dists)]
    return errors


def swap_members(work: str, lines: list[str], k: int, round_config,
                 checkpoints: list[str]) -> list[str]:
    """Re-decode the first CHECK_SAMPLES samples of round k with the
    members in reverse order; the prediction file must match byte for byte."""
    cfg = round_config("swapped", lines[:CHECK_SAMPLES])
    reverse = [arg for path in reversed(checkpoints) for arg in ("--checkpoint", path)]
    if cli("predict", "--config", cfg, *reverse) != 0:
        return ["predict with swapped members failed"]
    with open(os.path.join(work, "swapped.preds"), "rb") as fh:
        swapped = fh.read()
    with open(os.path.join(work, f"round{k:03d}.preds"), "rb") as fh:
        original = b"".join(fh.read().splitlines(keepends=True)[:CHECK_SAMPLES])
    return [] if swapped == original else ["swapping the members changes the predictions"]


# -- entry point ---------------------------------------------------------------

WORKLOADS = {      # name -> (unit of work, runner)
    "train": ("step", functools.partial(run_training, encoder=common.POSITIONAL)),
    "train-eos-sv": ("step", functools.partial(run_training, encoder=common.EOS)),
    "decode-ensemble": ("sample", run_decode),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    try:
        common.import_program()
    except ImportError as exc:
        print(f"cannot import the program from {common.SRC_DIR}: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(common.REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    work = os.path.join(common.OUT_DIR, f"{args.workload}-s{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = Run()
    tracer = None
    if args.trace:
        # Span times leave out the speed-measuring loop's interruptions.
        tracer = tracing.Tracer(clock=lambda: (time.perf_counter() - run.setup_speed.seconds
                                               - run.work_speed.seconds))
        tracer.install()
    unit, workload = WORKLOADS[args.workload]
    workload(run, work, args.seed, args.seconds, tracer)

    end_to_end = {
        "setup_s": statistics.median(run.setup_s) / run.setup_speed.factor(),
        "throughput_per_s": (run.work_units / run.work_s * run.work_speed.factor()
                             if run.work_s else 0.0),
        "peak_rss_mb": run.peak_rss_mb,
    }
    print(f"setup_s {end_to_end['setup_s']:.6f} (as measured {statistics.median(run.setup_s):.6f}), "
          f"throughput_per_s {end_to_end['throughput_per_s']:.4f} (as measured "
          f"{run.work_units / max(run.work_s, 1e-9):.4f}), speed factors "
          f"{run.setup_speed.factor():.4f} / {run.work_speed.factor():.4f}", file=sys.stderr)
    if args.trace:
        values = tracing.layer_metrics(tracer, unit, MIN_DECODE_ROUNDS * DECODE_ROUND_SAMPLES)
        for name in values:     # times at the reference speed, like the end-to-end ones
            if name.endswith("_ms"):
                speed = run.setup_speed if name in SETUP_LAYERS else run.work_speed
                values[name] /= speed.factor()
        tracer.write(os.path.join(common.OUT_DIR, f"trace-{args.workload}-s{args.seed}.json"))
        listed = spec["per_layer"]
    else:
        values = end_to_end
        listed = spec["end_to_end"]
    metrics = {}
    for entry in listed:
        name = entry["name"]
        needs = tracing.NEEDS[name] if args.trace else ()
        absent = [hook for hook in needs if hook in tracer.missing]
        if absent:
            print(f"metric {name} absent: hook {', '.join(absent)} not found", file=sys.stderr)
            continue
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
    for error in run.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"correct": not run.errors, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
