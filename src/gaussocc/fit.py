"""Differentiable fitting of a Gaussian set to a reference voxel grid.

Parameters live in an unconstrained vector: per Gaussian the mean (3),
log-scales (3), a free quaternion that is normalized on use (4), a raw
opacity mapped through softplus (1), and the semantic logits. The loss is
the mean cross entropy between the composed field prediction and the
one-hot grid label at sampled voxel centers; the additive baseline uses a
softmax over its raw accumulated logits instead.

Gradients are fully analytic: the covariance chain runs through rotation
and log-scales, and a free quaternion's gradient is the closed-form
body-frame torque on its rotation, tangent to its sphere and scaled by
1/norm. Loss and gradient run on the field's sparse pair kernel:
only the (Gaussian, point) pairs within the cutoff are visited.
Optimization is plain gradient descent with first/second moment
accumulation, decoupled weight decay and a cosine step-size decay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import MIN_SCALE, GaussianSet, _count, _finite_points, _frozen, _seed, rotation_matrices
from .core import seeded_stream as _stream
from .field import (
    EvalOptions,
    _Pairs,
    additive_sums,
    gmm_expectation,
    live_pairs,
    log1mexp,
    log_mixture_weights,
    scatter_sum,
    softmax,
)
from .grid import _MODELS, VoxelGrid, _voxelize_model
from .io import read_key_values
from .metrics import ConfusionMatrix

_LOG_U_FLOOR = np.log(1e-15)  # floor on per-Gaussian log(1 - alpha_i) inside the loss
_PRED_FLOOR = 1e-12  # floor on predicted class probability inside the log
_LOG_PRED_FLOOR = np.log(_PRED_FLOOR)

_ADAM_B1 = 0.9
_ADAM_B2 = 0.999
_ADAM_EPS = 1e-8

MODELS = tuple(_MODELS)


def softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def inv_softplus(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(divide="ignore"):
        small = np.log(np.expm1(np.minimum(y, 20.0)))
    return np.where(y > 20.0, y + np.log1p(-np.exp(-y)), small)


def _constrained(blk: np.ndarray) -> np.ndarray:
    """The (P, stride) parameter blocks mapped to the rows of the set they
    decode to: scales and opacities overflow long before their raw values."""
    out = blk.copy()
    with np.errstate(over="ignore"):
        out[:, 3:6] = np.exp(blk[:, 3:6])
        out[:, 10] = softplus(blk[:, 10])
    return out


@dataclass(frozen=True)
class ParamVector:
    """Flat unconstrained parameters of a Gaussian set: the rows of
    :meth:`GaussianSet.rows`, the one row layout, with log-scales in place
    of the scales and raw opacities (inverse softplus) in place of the
    opacities.
    """

    values: np.ndarray
    num_gaussians: int
    num_channels: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        expected = self.num_gaussians * self.stride
        if values.shape != (expected,):
            raise ValueError(f"expected {expected} parameters, got {values.shape}")
        object.__setattr__(self, "values", _frozen(values))

    @property
    def stride(self) -> int:
        return 11 + self.num_channels

    @classmethod
    def encode(cls, gs: GaussianSet) -> "ParamVector":
        blk = gs.rows()
        blk[:, 3:6] = np.log(gs.scales)
        blk[:, 10] = inv_softplus(gs.opacities)
        return cls(values=blk.reshape(-1), num_gaussians=len(gs), num_channels=gs.num_classes)

    def decode(self) -> GaussianSet:
        return GaussianSet.from_rows(_constrained(self.values.reshape(self.num_gaussians, self.stride)))


INIT_POLICIES = ("grid", "random")


@dataclass(frozen=True)
class FitConfig:
    """Budget, sampling policy and model choice for one fitting run.

    ``init`` picks the starting set: ``"grid"`` is the occupancy-aligned
    initialization from the reference grid; ``"random"`` scatters means
    uniformly over the grid extent with neutral semantics, the setting
    for a fair representation comparison where neither model starts with
    placement knowledge.
    """

    num_gaussians: int = 256
    iterations: int = 1000
    learning_rate: float = 0.02
    lr_min: float = 0.0
    batch_points: int = 1024
    occupied_ratio: float = 0.5
    seed: int = 0
    model: str = "probabilistic"
    init: str = "grid"
    weight_decay: float = 0.01
    eval_every: int = 200
    init_logit_scale: float = 5.0
    cutoff_mahalanobis_sq: Optional[float] = 25.0

    def __post_init__(self):
        for name in ("learning_rate", "lr_min", "weight_decay", "init_logit_scale"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        EvalOptions(cutoff_mahalanobis_sq=self.cutoff_mahalanobis_sq)  # rejects a bad cutoff
        for name in ("num_gaussians", "iterations", "batch_points", "eval_every"):
            _count(getattr(self, name), name)
        _seed(self.seed)
        if self.learning_rate <= 0 or self.lr_min < 0:
            raise ValueError("learning_rate must be > 0 and lr_min >= 0")
        if not 0.0 < self.occupied_ratio < 1.0:
            raise ValueError("occupied_ratio must lie strictly between 0 and 1")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.init not in INIT_POLICIES:
            raise ValueError(f"init must be one of {INIT_POLICIES}, got {self.init!r}")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")

    @classmethod
    def from_dict(cls, raw: dict[str, str]) -> "FitConfig":
        kwargs: dict[str, object] = {}
        fields = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        for key, value in raw.items():
            if key not in fields:
                raise ValueError(f"unknown fit config key {key!r}")
            try:
                if key == "cutoff_mahalanobis_sq" and value.lower() in ("none", "inf"):
                    kwargs[key] = None
                else:
                    kwargs[key] = type(getattr(cls, key))(value)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
        return cls(**kwargs)  # type: ignore[arg-type]

    @classmethod
    def from_file(cls, path) -> "FitConfig":
        return cls.from_dict(read_key_values(path))

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {}
        for name in self.__dataclass_fields__:  # type: ignore[attr-defined]
            value = getattr(self, name)
            out[name] = "none" if value is None else value
        return out


@dataclass(frozen=True)
class FitResult:
    gaussians: GaussianSet
    loss_trace: np.ndarray
    metrics_trace: tuple[tuple[int, float, float], ...]

    @property
    def final_iou(self) -> float:
        return self.metrics_trace[-1][1]

    @property
    def final_miou(self) -> float:
        return self.metrics_trace[-1][2]


# -- farthest point sampling ---------------------------------------------------


_FPS_BLOCK = 256  # candidates per block of farthest-point sampling's running maxima
_FPS_PAD = 1.0 + 1e-9  # slab half-width over the farthest distance: covers its rounding


def _greedy_fps(points: np.ndarray, k: int, first: int) -> np.ndarray:
    """Greedy farthest-point picks from an (n, 3) cloud, starting at ``first``.

    The cloud is sorted once (stably) along its widest axis into three
    contiguous coordinate columns. Every distance is computed as
    ``sqrt((dx*dx + dy*dy) + dz*dz)``, the summation order of
    ``np.linalg.norm(points - points[nxt], axis=1)``, so each distance, and
    hence each pick, carries the bits of the loop that re-measures the whole
    cloud at every pick.

    A pick's min-distance ``r`` is the largest of all, so the update can only
    lower points closer than ``r`` to it. It re-measures the slab whose sort
    coordinate lies within ``h = fl(r * (1 + 1e-9))`` of the pick's ``c``.
    ``r`` was computed as ``fl(sqrt(S))`` from a rounded sum of squares
    ``S``, so ``h^2 > S``. A point outside the slab has ``|x - c| >= h``
    exactly (a float beyond ``fl(c + h)`` is beyond ``c + h``), so its
    rounded ``|dx| >= h``, its rounded sum of squares is at least
    ``fl(h^2) >= S`` and its distance at least ``fl(sqrt(S)) = r``: its
    min-distance cannot change. Rounding is monotone, so this holds for
    subnormal squares too.

    The next pick is the largest of per-block maxima, of which only the
    blocks the slab touches are refreshed. Among equally far points the
    lowest index wins. When the sort leaves the cloud in place (voxel
    centers come ordered along x) that is the first maximum in sorted order;
    otherwise the blocks holding the maximum are searched for the lowest
    original index.
    """
    n = points.shape[0]
    b = _FPS_BLOCK
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = first
    axis = int(np.argmax(np.ptp(points, axis=0)))
    in_order = bool(np.all(points[1:, axis] >= points[:-1, axis]))
    nb = -(-n // b)
    if in_order:  # the stable sort is the identity
        s = first
        cols = np.ascontiguousarray(points.T)
    else:
        order = np.argsort(points[:, axis], kind="stable")
        s = int(np.flatnonzero(order == first)[0])
        cols = np.ascontiguousarray(points[order].T)
        rank = np.full(nb * b, n)
        rank[:n] = order
        rank = rank.reshape(nb, b)
    key = cols[axis]
    dist = np.full(nb * b, -1.0)  # the padding never wins
    dist[:n] = np.inf
    blocks = dist.reshape(nb, b)
    peak = np.full(nb, np.inf)
    sq = np.empty((3, n))
    r = np.inf
    for i in range(1, k):
        h = r * _FPS_PAD
        c = key[s]
        lo = int(key.searchsorted(c - h, "left"))
        hi = int(key.searchsorted(c + h, "right"))
        d = sq[:, : hi - lo]
        np.subtract(cols[:, lo:hi], cols[:, s : s + 1], out=d)
        np.multiply(d, d, out=d)
        d = np.add(d[0], d[1], out=d[0])
        np.add(d, sq[2, : hi - lo], out=d)
        np.sqrt(d, out=d)
        np.minimum(dist[lo:hi], d, out=dist[lo:hi])
        b0, b1 = lo // b, (hi - 1) // b + 1
        blocks[b0:b1].max(axis=1, out=peak[b0:b1])
        top = int(peak.argmax())
        r = peak[top]
        if in_order:
            s = chosen[i] = top * b + int(blocks[top].argmax())
        else:
            hold = np.flatnonzero(peak == r)
            j = int(np.where(blocks[hold] == r, rank[hold], n).argmin())
            s = int(hold[j // b]) * b + j % b
            chosen[i] = order[s]
    return chosen


def fps_init(candidates: np.ndarray, k: int, seed: int, batched: bool = False) -> np.ndarray:
    """Indices of k farthest-point samples from a candidate cloud.

    Greedy: a seeded first pick, then each next point maximizes the
    minimum distance to the chosen set; among equally far points the
    lowest index wins. The batched variant splits the cloud into octants
    around the bounding-box midpoint, runs greedy sampling per octant with
    proportional quotas and concatenates.

    Each cloud (each octant when batched) is sorted once along its widest
    axis. A pick then re-measures only the slab of candidates within the
    current farthest distance ``r`` of it on that axis, padded to
    ``r * (1 + 1e-9)``: a point outside the padded slab is at least ``r``
    away even in rounded arithmetic, and ``r`` bounds every point's
    min-distance, so its min-distance cannot change. The next pick comes
    from per-block maxima, refreshed only where the slab touched them.
    Ties go to the lowest index: with no search when the candidates
    already come ordered along the sort axis (as ``occupied_centers()``
    does along x), else by searching the blocks that hold the maximum.
    The picks carry the bits of the loop that re-measures every candidate
    at every pick.

    ``candidates`` must be a finite (N, 3) array and ``k`` an integer in
    [1, N]; anything else raises ``ValueError``.
    """
    points = _finite_points(candidates)
    k, n = _count(k, "k"), points.shape[0]
    if k > n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    rng = _stream(seed, 0)
    if k == n:
        return np.arange(n)
    if not batched:
        return _greedy_fps(points, k, first=int(rng.integers(n)))

    mid = 0.5 * (points.min(axis=0) + points.max(axis=0))
    octant = (
        (points[:, 0] >= mid[0]).astype(np.int64) * 4
        + (points[:, 1] >= mid[1]).astype(np.int64) * 2
        + (points[:, 2] >= mid[2]).astype(np.int64)
    )
    members = [np.flatnonzero(octant == o) for o in range(8)]
    sizes = np.array([m.size for m in members])
    exact = k * sizes / n
    quotas = np.floor(exact).astype(np.int64)
    # Largest remainders round up. Fewer octants round up than have a
    # fractional part, and each of those has a spare candidate.
    quotas[np.argsort(-(exact - quotas), kind="stable")[: k - int(quotas.sum())]] += 1
    out = []
    for o in range(8):
        if quotas[o] == 0:
            continue
        sub = members[o]
        picked = _greedy_fps(points[sub], int(quotas[o]), first=int(rng.integers(sub.size)))
        out.append(sub[picked])
    return np.concatenate(out)


def init_from_grid(gt: VoxelGrid, cfg: FitConfig) -> GaussianSet:
    """Distribution-style initialization from the reference grid itself.

    Means are farthest-point samples of the occupied voxel centers (with
    replacement plus sub-voxel jitter when the grid has fewer occupied
    voxels than Gaussians), scales equal the voxel size, rotations are
    identity, opacities one, and the logits are a scaled one-hot of the
    local label.
    """
    centers = gt.occupied_centers()
    labels = gt.occupied_labels().astype(np.int64)
    n_occ = centers.shape[0]
    if n_occ == 0:
        raise ValueError("cannot initialize from a fully empty grid")
    p = cfg.num_gaussians
    rng = _stream(cfg.seed, 1)
    if n_occ >= p:
        idx = fps_init(centers, p, cfg.seed, batched=n_occ > 20000)
        means = centers[idx]
        chosen = labels[idx]
    else:
        extra = rng.integers(0, n_occ, size=p - n_occ)
        jitter = rng.uniform(-0.25, 0.25, size=(p - n_occ, 3)) * gt.spec.voxel_size
        means = np.concatenate([centers, centers[extra] + jitter])
        chosen = np.concatenate([labels, labels[extra]])
    return _initial_set(gt, cfg, means, gt.spec.voxel_size, chosen)


def random_init(gt: VoxelGrid, cfg: FitConfig) -> GaussianSet:
    """Placement-agnostic initialization: means uniform over the grid
    extent, neutral (zero) logits, voxel-pair scales, identity rotations."""
    rng = _stream(cfg.seed, 9)
    means = rng.uniform(gt.spec.min_corner, gt.spec.max_corner, size=(cfg.num_gaussians, 3))
    return _initial_set(gt, cfg, means, 2.0 * gt.spec.voxel_size)


def _initial_set(gt: VoxelGrid, cfg: FitConfig, means, scale, labels=None) -> GaussianSet:
    """Identity rotations, unit opacities, one ``scale`` for all, and zero
    logits but ``init_logit_scale`` on each Gaussian's grid label, if given.
    The probabilistic logits leave out the empty class 0."""
    p = means.shape[0]
    extra = _MODELS[cfg.model][0]
    logits = np.zeros((p, gt.spec.num_classes_total - 1 + extra))
    if labels is not None:
        logits[np.arange(p), labels - 1 + extra] = cfg.init_logit_scale
    return GaussianSet(
        means=means,
        scales=np.tile(scale, (p, 1)),
        rotations=np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (p, 1)),
        opacities=np.ones(p),
        logits=logits,
    )


# -- fused loss and gradient ----------------------------------------------------


def _quaternion_grad(k: np.ndarray, qn: np.ndarray, qnorm: np.ndarray) -> np.ndarray:
    """(P, 4) gradient of the free quaternions qnorm * qn. The loss sees R only
    through R^T dL/dR = 2K, K = diag(s) uu diag(s)^-1, so a body-frame turn
    R (I + [theta]x) changes it by tau . theta, tau = 2 (K21 - K12, K02 - K20,
    K10 - K01). qn = (w, v) then moves by qn (x) (0, theta) / 2: its gradient is
    the tangent 2 qn (x) (0, tau) = 2 (-v . tau, w tau + v x tau), over qnorm."""
    tau = 2.0 * (k - k.transpose(0, 2, 1))[:, (2, 0, 1), (1, 2, 0)]
    w, v = qn[:, :1], qn[:, 1:]
    g = np.concatenate([-np.sum(v * tau, axis=1, keepdims=True), w * tau + np.cross(v, tau)], axis=1)
    return g * (2.0 / qnorm)[:, None]


def _additive_pair_grads(pairs: _Pairs, g_vals, logits, d_loss_dz) -> tuple[np.ndarray, np.ndarray]:
    """The additive loss's per-pair ``g_gv = sum_c logits[g, c] dL/dz[x, c]``
    and (P, ch) logit gradient ``sum over pairs of g_vals dL/dz[x, c]``, one
    channel at a time, so no (ch, M) array is built. ``g_gv`` accumulates
    from zero in channel order, the additions ``np.einsum("cm,cm->m")``
    makes on two or more pairs."""
    g_gv = np.zeros(pairs.point.size)
    grad_logits = np.empty(logits.shape)
    for c, column in enumerate(np.ascontiguousarray(d_loss_dz.T)):
        dz = np.take(column, pairs.point)
        term = pairs.spread(logits[:, c])
        term *= dz
        g_gv += term
        dz *= g_vals
        grad_logits[:, c] = pairs.sum(dz)
        del dz, term  # before the next channel's are built
    return g_gv, grad_logits


def _loss_and_grad(
    theta: np.ndarray,
    num_gaussians: int,
    num_channels: int,
    points: np.ndarray,
    labels: np.ndarray,
    model: str,
    cutoff: float,
    want_grad: bool = True,
) -> tuple[float, np.ndarray | None]:
    p, ch = num_gaussians, num_channels
    stride = 11 + ch
    blk = theta.reshape(p, stride)
    means = blk[:, 0:3]
    log_scales = blk[:, 3:6]
    quats_raw = blk[:, 6:10]
    opac_raw = blk[:, 10]
    logits = blk[:, 11:]

    qnorm = np.linalg.norm(quats_raw, axis=1)
    if np.any(qnorm == 0.0):
        raise ValueError("zero-norm quaternion has no orientation")
    qn = quats_raw / qnorm[:, None]
    rot = rotation_matrices(qn)
    s_exp = np.exp(log_scales)
    s = np.maximum(s_exp, MIN_SCALE)
    s_active = (s_exp > MIN_SCALE).astype(np.float64)
    opac = softplus(opac_raw)
    with np.errstate(over="ignore"):  # exp overflow gives sig = 0, as the logistic should
        sig = 1.0 / (1.0 + np.exp(-opac_raw))

    n = points.shape[0]
    labels = np.asarray(labels, dtype=np.int64)
    max_label = ch - _MODELS[model][0]
    if labels.min() < 0 or labels.max() > max_label:
        raise ValueError(f"labels must lie in [0, {max_label}] for the {model} model")

    # Only the pairs within the cutoff contribute; every array below is per
    # live pair, per point or per Gaussian. Per-point sums scatter onto the
    # pairs' points; per-Gaussian sums are the pair list's segment sums.
    pairs, local, d2 = live_pairs(points, means, rot, s, cutoff)
    point = pairs.point
    alpha_i = np.exp(-0.5 * d2)
    loss_terms = np.empty(n)
    grad_logits = np.zeros((p, ch))
    grad_log_a = np.zeros(p)
    grad_a_direct = np.zeros(p)  # additive path only

    if model == "probabilistic":
        li_raw = log1mexp(0.5 * d2)
        li_floor = li_raw < _LOG_U_FLOOR
        total = scatter_sum(point, np.maximum(li_raw, _LOG_U_FLOOR), n)
        occ = labels > 0
        loss_terms[~occ] = -total[~occ]

        log_alpha_raw = log1mexp(-total)
        alpha_floor = ~(log_alpha_raw >= _LOG_PRED_FLOOR)
        log_alpha = np.where(alpha_floor, _LOG_PRED_FLOOR, log_alpha_raw)
        # Mixture posterior over the live pairs of occupied points.
        sem = softmax(logits)
        occ_pairs = occ[point]
        occ_sub = pairs.select(occ_pairs)
        pt_occ = occ_sub.point
        w = occ_sub.spread(log_mixture_weights(opac, s)) - 0.5 * np.compress(occ_pairs, d2)
        # Flat (Gaussian, label class) index into the (P, ch) logits.
        gk_occ = occ_sub.spread(np.arange(0, p * ch, ch)) + (labels - 1)[pt_occ]
        sem_y = np.take(sem, gk_occ)
        e, rho, fallback = gmm_expectation(w, pt_occ, [sem_y], n, ch)
        e_y = e[:, 0]
        e_floor = e_y < _PRED_FLOOR
        log_e = np.log(np.maximum(e_y, _PRED_FLOOR))
        loss_terms[occ] = -log_alpha[occ] - log_e[occ]

        if want_grad:
            with np.errstate(over="ignore"):
                ratio = np.exp(total - log_alpha_raw)  # (1 - alpha) / alpha
            g_li = np.where(occ, np.where(alpha_floor, 0.0, ratio), -1.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                dli_dd2 = 0.5 * alpha_i / -np.expm1(-0.5 * d2)
            dli_dd2[li_floor] = 0.0
            grad_d2 = g_li[point] * dli_dd2
            dead = (fallback | e_floor)[pt_occ]
            beta = rho * sem_y / np.where(e_y, e_y, 1.0)[pt_occ]
            d_loss_dw = np.where(dead, 0.0, rho - beta)
            live_beta = np.where(dead, 0.0, beta)
            grad_d2[occ_pairs] -= 0.5 * d_loss_dw
            grad_log_a = occ_sub.sum(d_loss_dw)
            grad_logits = sem * occ_sub.sum(live_beta)[:, None]
            grad_logits -= scatter_sum(gk_occ, live_beta, p * ch).reshape(p, ch)
    else:  # additive baseline
        # Each pair's weight opacity * exp(-d2 / 2) times its Gaussian's logits.
        g_vals = pairs.spread(opac) * alpha_i
        z = additive_sums(pairs, g_vals, logits, n)
        zmax = z.max(axis=1)
        lse = zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1))
        log_p = z[np.arange(n), labels] - lse
        p_floor = log_p < _LOG_PRED_FLOOR
        loss_terms[:] = -np.maximum(log_p, _LOG_PRED_FLOOR)

        if want_grad:
            d_loss_dz = np.exp(z - lse[:, None])
            d_loss_dz[np.arange(n), labels] -= 1.0
            d_loss_dz[p_floor] = 0.0
            g_gv, grad_logits = _additive_pair_grads(pairs, g_vals, logits, d_loss_dz)
            grad_d2 = -0.5 * g_gv * g_vals
            grad_a_direct = pairs.sum(g_gv * alpha_i)
            del g_gv, g_vals  # before the chain rule's per-pair temporaries

    loss = float(loss_terms.mean())
    if not want_grad:
        return loss, None

    # Chain the d2 gradient into means, log-scales and quaternions. With
    # u = R^T (x - m) / s per pair, d2 = |u|^2 and the per-Gaussian sums
    # t = sum g u and uu = sum g u u^T carry everything; the rotation is
    # applied once per Gaussian, after the sum. Both are summed one
    # component of u (a column of ``local``) at a time, uu from its 6
    # unique entries.
    t = np.empty((p, 3))
    uu = np.empty((p, 3, 3))
    for i in range(3):
        gu = grad_d2 * local[:, i]
        t[:, i] = pairs.sum(gu)
        for j in range(i, 3):
            uu[:, i, j] = uu[:, j, i] = pairs.sum(gu * local[:, j])
    g_means = -2.0 * np.einsum("pab,pb->pa", rot, t / s)
    # Each log-scale also enters the mixture weight through -log(det)/2.
    g_ls = -2.0 * np.diagonal(uu, axis1=1, axis2=2) - grad_log_a[:, None]
    g_ls *= s_active
    g_quat = _quaternion_grad(s[:, :, None] * uu / s[:, None, :], qn, qnorm)
    if model == "probabilistic":
        with np.errstate(invalid="ignore"):
            log_a_chain = np.where(opac > 0.0, sig / opac, 0.0)
        g_opac = grad_log_a * log_a_chain
    else:
        g_opac = grad_a_direct * sig

    grad = np.empty_like(blk)
    grad[:, 0:3] = g_means
    grad[:, 3:6] = g_ls
    grad[:, 6:10] = g_quat
    grad[:, 10] = g_opac
    grad[:, 11:] = grad_logits
    return loss, grad.reshape(-1) / n


def _params_loss_and_grad(params, gt, sample_points, model, opts, want_grad):
    """:func:`_loss_and_grad` of a ParamVector at grid-labelled points; the
    points are checked as the field's query points are, and must not be empty."""
    points = _finite_points(sample_points)
    if points.shape[0] == 0:
        raise ValueError("sample_points must hold at least one point, got shape (0, 3)")
    return _loss_and_grad(
        np.asarray(params.values, dtype=np.float64),
        params.num_gaussians,
        params.num_channels,
        points,
        gt.labels_at_points(points),
        model,
        (opts or EvalOptions()).cutoff,
        want_grad=want_grad,
    )


def fit_loss(
    params: ParamVector,
    gt: VoxelGrid,
    sample_points: np.ndarray,
    model: str = "probabilistic",
    opts: EvalOptions | None = None,
) -> float:
    """Mean cross entropy of the model prediction against grid labels at
    the given sample points."""
    return _params_loss_and_grad(params, gt, sample_points, model, opts, want_grad=False)[0]


def fit_grad(
    params: ParamVector,
    gt: VoxelGrid,
    sample_points: np.ndarray,
    model: str = "probabilistic",
    opts: EvalOptions | None = None,
) -> np.ndarray:
    """Analytic gradient of :func:`fit_loss` w.r.t. every parameter."""
    return _params_loss_and_grad(params, gt, sample_points, model, opts, want_grad=True)[1]


class _SamplePools:
    """Cached occupied/empty voxel index pools of one grid; a draw builds
    the centers of the drawn voxels only."""

    def __init__(self, gt: VoxelGrid):
        self.centers = gt.spec.centers()
        flat = gt.labels_flat
        self.labels = flat.astype(np.int64)
        self.occupied = np.flatnonzero(flat != 0)
        self.empty = np.flatnonzero(flat == 0)
        if self.occupied.size == 0:
            raise ValueError("cannot sample training points from a fully empty grid")

    def draw(self, batch: int, occupied_ratio: float, rng: np.random.Generator):
        n_occ = batch if self.empty.size == 0 else int(round(batch * occupied_ratio))
        n_occ = min(max(n_occ, 1), batch)
        picks = [self.occupied[rng.integers(0, self.occupied.size, size=n_occ)]]
        if batch - n_occ:
            picks.append(self.empty[rng.integers(0, self.empty.size, size=batch - n_occ)])
        idx = np.concatenate(picks)
        return self.centers.take(idx), self.labels[idx]


_PARAM_GROUPS = (
    ("means", slice(0, 3)),
    ("scales", slice(3, 6)),
    ("quaternions", slice(6, 10)),
    ("opacities", slice(10, 11)),
    ("logits", slice(11, None)),
)


def _require_finite(blk: np.ndarray, what: str, iteration: int) -> None:
    """Fail fast, naming the parameter group, on a non-finite entry of a
    (P, stride) block of gradients or parameters."""
    for name, cols in _PARAM_GROUPS:
        bad = ~np.isfinite(blk[:, cols])
        if bad.any():
            raise ValueError(
                f"fit diverged at iteration {iteration}: non-finite {what} in {name} "
                f"(Gaussian {int(np.flatnonzero(bad.any(axis=1))[0])}); lower the learning rate"
            )


def _evaluate(gs: GaussianSet, gt: VoxelGrid, model: str, opts: EvalOptions) -> tuple[float, float]:
    cm = ConfusionMatrix.from_grids(_voxelize_model(gs, gt.spec, model, opts), gt)
    return cm.iou(), cm.miou()


def fit(gt: VoxelGrid, cfg: FitConfig) -> FitResult:
    """Fit a Gaussian set to a reference grid.

    Deterministic given the config seed; returns the final set, the
    per-iteration loss trace and the periodic IoU/mIoU trace (always
    including iteration 0 and the final state).
    """
    opts = EvalOptions(cutoff_mahalanobis_sq=cfg.cutoff_mahalanobis_sq)
    initial = init_from_grid(gt, cfg) if cfg.init == "grid" else random_init(gt, cfg)
    pv = ParamVector.encode(initial)
    p, ch = pv.num_gaussians, pv.num_channels
    blk = pv.values.reshape(p, pv.stride)
    # Decoupled weight decay applies to log-scales, raw opacity and logits.
    # Means are geometry (decay would drag the scene toward the origin) and
    # quaternions are directions (decay would violate norm preservation).
    decay = np.r_[3:6, 10 : pv.stride]

    rng = _stream(cfg.seed, 2)
    pools = _SamplePools(gt)
    m = np.zeros_like(blk)
    vv = np.zeros_like(blk)
    losses = np.empty(cfg.iterations)
    metrics: list[tuple[int, float, float]] = []

    def record(iteration: int):
        i, mi = _evaluate(GaussianSet.from_rows(_constrained(blk)), gt, cfg.model, opts)
        metrics.append((iteration, i, mi))

    record(0)
    span = max(cfg.iterations - 1, 1)
    for t in range(cfg.iterations):
        points, labels = pools.draw(cfg.batch_points, cfg.occupied_ratio, rng)
        loss, grad = _loss_and_grad(blk, p, ch, points, labels, cfg.model, opts.cutoff)
        if not np.isfinite(loss):
            raise ValueError(f"fit diverged at iteration {t}: the loss is {loss}")
        grad = grad.reshape(blk.shape)
        _require_finite(grad, "gradient", t)
        losses[t] = loss
        lr = cfg.lr_min + 0.5 * (cfg.learning_rate - cfg.lr_min) * (1.0 + np.cos(np.pi * t / span))
        m = _ADAM_B1 * m + (1.0 - _ADAM_B1) * grad
        vv = _ADAM_B2 * vv + (1.0 - _ADAM_B2) * grad * grad
        m_hat = m / (1.0 - _ADAM_B1 ** (t + 1))
        v_hat = vv / (1.0 - _ADAM_B2 ** (t + 1))
        # A fresh block each step: an array once passed to _loss_and_grad
        # is never changed afterwards.
        blk = blk - lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
        if cfg.weight_decay:
            blk[:, decay] -= lr * cfg.weight_decay * blk[:, decay]
        # The preconditioned update is not exactly tangent to the quaternion
        # sphere; the loss is radial-invariant, so snap the norm back.
        blk[:, 6:10] /= np.linalg.norm(blk[:, 6:10], axis=1, keepdims=True)
        _require_finite(_constrained(blk), "parameters", t)
        if (t + 1) % cfg.eval_every == 0 and t + 1 < cfg.iterations:
            record(t + 1)

    record(cfg.iterations)
    final = GaussianSet.from_rows(_constrained(blk))
    return FitResult(gaussians=final, loss_trace=losses, metrics_trace=tuple(metrics))
