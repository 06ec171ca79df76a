"""Central-finite-difference verification of the whole gradient path.

Every differentiable kernel is checked against (f(x+h) - f(x-h)) / 2h on
random inputs, and the full network is checked end to end on a toy
configuration. The error metric per element is

    |analytic - numeric| / (max(|analytic|, |numeric|) + 1e-3)

which behaves like a relative error for O(1) gradients while tolerating
finite-difference noise on near-zero ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .config import ModelConfig
from .errors import VerificationError
from .model import ModelInputs, _forward_batch, init_params, parameter_count
from . import tensor as T

STEP = 1e-5
TOLERANCE = 1e-4


@dataclass
class CheckResult:
    name: str
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < TOLERANCE


def _numeric_grad(build: Callable[[], T.Tensor], leaf: T.Tensor, step: float = STEP) -> np.ndarray:
    grad = np.zeros_like(leaf.data)
    flat = leaf.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        with T.no_grad():
            up = build().item()
        flat[i] = original - step
        with T.no_grad():
            down = build().item()
        flat[i] = original
        gflat[i] = (up - down) / (2.0 * step)
    return grad


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = np.maximum(np.abs(analytic), np.abs(numeric)) + 1e-3
    return float(np.max(np.abs(analytic - numeric) / scale)) if analytic.size else 0.0


def check_gradient(name: str, build: Callable[[], T.Tensor],
                   leaves: Sequence[T.Tensor]) -> CheckResult:
    """Compare reverse-mode gradients of the scalar build() against central
    differences for every leaf."""
    for leaf in leaves:
        leaf.grad = None
    loss = build()
    loss.backward()
    worst = 0.0
    for leaf in leaves:
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        numeric = _numeric_grad(build, leaf)
        worst = max(worst, _rel_err(analytic, numeric))
    return CheckResult(name, worst)


def _leaf(rng: np.random.Generator, shape, low: float = -1.0, high: float = 1.0,
          avoid: Sequence[float] = ()) -> T.Tensor:
    """Random leaf; values are nudged off `avoid` points so central
    differences never straddle a kink (abs/relu)."""
    data = rng.uniform(low, high, size=shape)
    for point in avoid:
        near = np.abs(data - point) < 1e-3
        data[near] += 2e-3
    return T.Tensor(data, requires_grad=True)


def _projector(rng: np.random.Generator):
    """Fixed random projection to a scalar, so repeated evaluations of one
    case compute the same function; sensitivity covers every output element.
    It is built of kernels the model calls: the mean of a [1, 1] dense."""
    cache: dict[tuple[int, ...], T.Tensor] = {}
    zero = T.constant([0.0])

    def project(out: T.Tensor) -> T.Tensor:
        weights = cache.get(out.shape)
        if weights is None:
            weights = T.constant(rng.uniform(0.5, 1.5, size=(out.size, 1)))
            cache[out.shape] = weights
        return T.mean_all(T.dense(T.reshape(out, (1, out.size)), weights, zero))

    return project


def op_check_cases(rng: np.random.Generator) -> list[tuple[str, Callable[[], T.Tensor], list[T.Tensor]]]:
    """One randomized instance per differentiable kernel."""
    a34 = _leaf(rng, (3, 4), avoid=(0.0,))
    b34 = _leaf(rng, (3, 4))
    m34 = _leaf(rng, (3, 4))
    m42 = _leaf(rng, (4, 2))
    bias2 = _leaf(rng, (2,))
    batch_a = _leaf(rng, (2, 3, 4))
    keys = _leaf(rng, (1, 5, 4))
    table = _leaf(rng, (5, 3))
    ids = rng.integers(0, 5, size=(2, 3))
    logits = _leaf(rng, (3, 5))
    targets = rng.integers(0, 5, size=3)
    gw = T.GRUWeights(
        _leaf(rng, (3, 4)), _leaf(rng, (4, 4)), _leaf(rng, (4,)),
        _leaf(rng, (3, 4)), _leaf(rng, (4, 4)), _leaf(rng, (4,)),
        _leaf(rng, (3, 4)), _leaf(rng, (4, 4)), _leaf(rng, (4,)),
    )
    gx2 = _leaf(rng, (2, 3))
    seq = _leaf(rng, (2, 3, 3))
    mask = T.constant([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    gate = _leaf(rng, (2, 3), low=-0.5, high=1.5)
    gate.data[1, 2] = 0.0                      # a pad step's gate still has a gradient
    query, memory = _leaf(rng, (2, 4)), _leaf(rng, (2, 4))
    valid = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])   # a pad statement's gate is 0
    p = _projector(rng)

    cases = [
        ("relu", lambda: p(T.relu(a34)), [a34]),
        ("dense", lambda: p(T.dense(m34, m42, bias2)), [m34, m42, bias2]),
        ("dense_shared", lambda: p(T.dense(batch_a, m42, bias2)), [batch_a, m42, bias2]),
        ("softmax", lambda: p(T.softmax(logits, axis=-1)), [logits]),
        ("attend", lambda: p(T.attend(batch_a, keys, [0, 0])), [batch_a, keys]),
        ("concat", lambda: p(T.concat([a34, b34, m34], axis=1)), [a34, b34, m34]),
        ("embedding_lookup", lambda: p(T.embedding_lookup(table, ids)), [table]),
        ("weighted_bag", lambda: p(T.weighted_bag(table, ids, m34.data[:, 1:], valid)), [table]),
        ("mean_all", lambda: p(T.mean_all(a34)), [a34]),
        ("reshape", lambda: p(T.reshape(a34, (2, 6))), [a34]),
        ("slice_axis", lambda: p(T.slice_axis(batch_a, 1, 1)), [batch_a]),
        ("embedding_lookup_3d", lambda: p(T.embedding_lookup(batch_a, [1, 0, 1])), [batch_a]),
        ("cross_entropy",
         lambda: T.mean_all(T.cross_entropy(T.softmax(logits, axis=-1), targets)), [logits]),
        ("gru_sequence", lambda: p(T.gru_sequence(seq, gw)), [seq, *gw]),
        ("gru_sequence_masked", lambda: p(T.gru_sequence(seq, gw, gate=mask)), [seq, *gw]),
        ("gru_sequence_gated",
         lambda: p(T.gru_sequence(seq, gw, gate=gate)), [seq, gate, *gw]),
        ("gru_cell", lambda: p(T.gru_cell(gx2, memory, gw)), [gx2, memory, *gw]),
        ("episodic_gate", lambda: p(T.episodic_gate(batch_a, query, memory, valid)),
         [batch_a, query, memory]),
        ("episodic_gate_squashed",
         lambda: p(T.episodic_gate(batch_a, query, memory, valid, True)),
         [batch_a, query, memory]),
    ]
    return cases


def run_op_checks(seed: int = 0, trials: int = 3) -> list[CheckResult]:
    """Every differentiable kernel, `trials` randomized instances each; each
    kernel reports its worst error."""
    worst: dict[str, float] = {}
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        for name, build, leaves in op_check_cases(rng):
            result = check_gradient(name, build, leaves)
            worst[name] = max(worst.get(name, 0.0), result.max_rel_err)
    return [CheckResult(name, err) for name, err in worst.items()]


def toy_config(**overrides) -> ModelConfig:
    base = dict(tdatlen=8, comlen=4, e_dim=3, l_dim=3, n=2, y=3, h=2,
                code_vocab_size=7, summary_vocab_size=5, projection_dim=4,
                batch=2, rng_seed=7)
    base.update(overrides)
    return ModelConfig(**base).validate()


def _toy_batch(config: ModelConfig, seed: int = 11) -> tuple[ModelInputs, np.ndarray]:
    rng = np.random.default_rng(seed)
    batch = 2
    code = rng.integers(0, config.code_vocab_size, size=(batch, config.tdatlen))
    stmt = rng.integers(4, config.code_vocab_size, size=(batch, config.n, config.y))
    lengths = np.zeros((batch, config.n), dtype=np.int64)
    lengths[:, 0] = config.y
    lengths[:, 1] = max(config.y - 1, 1)
    for b in range(batch):
        for i in range(config.n):
            stmt[b, i, lengths[b, i]:] = 0
    stmt[1, 0] = stmt[0, 0]       # one statement in both samples: the EOS GRU reads it once
    summary = np.zeros((batch, config.comlen), dtype=np.int64)
    summary[:, 0] = 1
    summary[:, 1] = rng.integers(4, config.summary_vocab_size, size=batch)
    targets = rng.integers(0, config.summary_vocab_size, size=batch)
    return ModelInputs(code, stmt, lengths, summary, np.arange(batch)), targets


def model_variants(base: ModelConfig | None = None) -> list[tuple[str, ModelConfig]]:
    """The base configuration plus variants covering every weight path:
    positional + constant query, eos + summary-vector query, and the plain
    seq2seq sub-network."""
    if base is None:
        base = toy_config()
    return [
        ("smn_positional_constant_q",
         replace(base, encoder_kind="smn", statement_encoding="positional",
                 gate_query="constant_q")),
        ("smn_eos_summary_vector",
         replace(base, encoder_kind="smn", statement_encoding="eos",
                 gate_query="summary_vector")),
        ("attendgru_only", replace(base, encoder_kind="attendgru_only")),
    ]


def model_check_work(base: ModelConfig) -> int:
    """The work of `run_model_checks` in forward steps: two forwards per
    parameter of each variant, each as many steps as its code GRU, decoder
    GRU and memory hops run, plus its n * y statement words."""
    steps = base.tdatlen + base.comlen + base.h * base.n + base.n * base.y
    return sum(2 * parameter_count(config) * steps for _, config in model_variants(base))


def run_model_checks(seed: int = 0, base: ModelConfig | None = None) -> list[CheckResult]:
    """End-to-end gradient of the mean next-word cross-entropy on the toy
    configuration, for all encoder variants, against every parameter."""
    results = []
    for name, config in model_variants(base):
        inputs, targets = _toy_batch(config, seed=seed + 11)
        params = init_params(config)

        def build():
            dists, _ = _forward_batch(inputs, params, config)
            return T.mean_all(T.cross_entropy(dists, targets))

        leaves = [t for _, t in params.items()]
        results.append(check_gradient(f"forward/{name}", build, leaves))
    return results


def format_report(results: Sequence[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "ok  " if r.passed else "FAIL"
        lines.append(f"{status} {r.name:32s} max_rel_err={r.max_rel_err:.3e}")
    failed = sum(not r.passed for r in results)
    lines.append(f"{len(results) - failed}/{len(results)} gradient checks passed "
                 f"(tolerance {TOLERANCE:g})")
    return "\n".join(lines) + "\n"


def require_all_passed(results: Sequence[CheckResult]) -> None:
    failed = [r for r in results if not r.passed]
    if failed:
        worst = max(failed, key=lambda r: r.max_rel_err)
        raise VerificationError(
            f"{len(failed)} gradient checks failed; worst is {worst.name} "
            f"with max relative error {worst.max_rel_err:.3e}"
        )
