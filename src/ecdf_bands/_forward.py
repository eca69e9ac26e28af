"""One forward pass for every exact coverage in the package.

Each exact coverage is the probability that a count process stays inside
a window at every step: one sample's count below each grid point, the
first chain's count of small pooled ranks (two chains), or the first two
chains' counts (three chains; the last count follows from the pooled
total).  Every transition of these processes factors exactly as
``source(r) * jump(r' - r) * destination(r')``, so a step is one
convolution of the source-weighted state with the jump kernel, read off
over the next window and weighted by the destination factor.  That
convolution is one ``np.convolve`` for every kind: in two dimensions the
rows are zero-padded to the output width and flattened (see
``_flat_convolution``).

Callers give each step's three factors in log space.  Before
exponentiating, an affine fit of the source over its window moves the
bulk of the source into the jump and destination factors (the affine
terms cancel along every path), and the kernel's peak moves into the
destination.  When the scaled factors would still leave the range of
``exp`` in double precision, the same log factors build each step's
transition matrix instead: the dense route.  ``dense_count`` counts the
dense passes run on the calling thread, and each one logs a DEBUG record
on the ``ecdf_bands`` logger.
"""

from __future__ import annotations

import logging
import math
import threading

import numpy as np

_EXP_GUARD = 600.0
_TINY = 1e-250

_log = logging.getLogger("ecdf_bands")
_local = threading.local()


def dense_count() -> int:
    """Number of dense passes run so far on the calling thread.

    The coverage functions return a bare probability, so a search that
    wants to report its route reads this count before and after its own
    evaluations; the count is per thread, so searches that run side by
    side in a thread pool do not see each other's passes.
    """
    return getattr(_local, "dense", 0)


def forward_mass(lo, hi, src, ker_base, dst, ker_lin=0.0) -> float:
    """Probability that the count stays inside every window.

    The pass starts at count ``lo[0]`` in every coordinate with
    probability one.  Before step t every coordinate of the count lies in
    ``[lo[t], hi[t]]`` (``lo`` and ``hi`` have T + 1 entries).  Arrays are
    indexed by offsets from the window's low end, padded to a common
    width W = max(hi - lo) + 1, with one axis per count coordinate (one
    or two):

    - ``src``, (T, W[, W]): log source factor over window t.  It must be
      finite over the whole padded box, since the affine fit reads its
      corners; clamp arguments that leave the count range.
    - ``ker_base``, (T or 1, J[, J]): log jump kernel for jumps 0..J-1 on
      each axis, -inf where a jump is impossible; ``ker_lin`` (scalar or
      (T,)) adds ``jump * ker_lin`` on each axis.
    - ``dst``: log destination factor over window t + 1, a sequence of
      (T, W[, W]) arrays added in order; -inf marks counts inside the
      window that are not allowed.

    Runs the convolution route and falls back to the dense route when the
    scaled factors leave double range.
    """
    out = fast_pass(lo, hi, src, ker_base, dst, ker_lin)
    if out is not None:
        return out
    _local.dense = dense_count() + 1
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "exact coverage: scaled factors leave double range, dense route over %d steps, "
            "%d-D windows up to %d wide",
            src.shape[0],
            src.ndim - 1,
            src.shape[1],
        )
    return dense_pass(lo, hi, src, ker_base, dst, ker_lin)


def _unreachable(dst_w, d_len) -> bool:
    """An empty window (negative width), or one whose counts all lie
    below the previous window's (no nonnegative jump reaches it)."""
    return int(dst_w.min()) < 0 or int(d_len.min()) < 1


def _along(values, axis: int, dims: int):
    """(T, W) values laid along one axis of a (T, W[, W]) box."""
    shape = [values.shape[0]] + [1] * dims
    shape[1 + axis] = values.shape[1]
    return values.reshape(shape)


def _per_step(values, dims: int):
    return np.reshape(values, (-1,) + (1,) * dims)


def _window(full: np.ndarray, start: int, width: int) -> np.ndarray:
    """``full[start : start + width]`` on every axis, zero where the
    slice leaves ``full``."""
    out = np.zeros((width,) * full.ndim)
    a, b = max(start, 0), min(start + width, full.shape[0])
    if a < b:
        out[(slice(a - start, b - start),) * full.ndim] = full[(slice(a, b),) * full.ndim]
    return out


def fast_pass(lo, hi, src, ker_base, dst, ker_lin=0.0):
    """The convolution route of ``forward_mass``; None when the scaled
    factors would not be safe in double precision.

    Each step is one ``np.convolve``, for one coordinate or two.  With
    two coordinates (three chains) the flat convolution adds the same
    products as a 2-D convolution in another order, so the two agree to
    rounding: coverages on the default grids differ by under 1e-15.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    dims = src.ndim - 1
    steps, width = src.shape[0], src.shape[1]
    src_w = hi[:-1] - lo[:-1]
    dst_w = hi[1:] - lo[1:]
    d_len = hi[1:] - lo[:-1] + 1
    if _unreachable(dst_w, d_len):
        return 0.0
    shift = lo[1:] - lo[:-1]
    offs = np.arange(width)
    rows = np.arange(steps)

    # affine fit of the source through its box corners
    anchor = src.reshape(steps, -1)[:, 0]
    span = np.maximum(src_w, 1)
    slopes = []
    for axis in range(dims):
        corner = [rows] + [0] * dims
        corner[1 + axis] = src_w
        slopes.append((anchor - src[tuple(corner)]) / span)

    def plane(coords):
        fit = _per_step(anchor, dims)
        for axis in range(dims):
            fit = fit - _along(slopes[axis][:, None] * coords, axis, dims)
        return fit

    inside = offs[None, :] <= dst_w[:, None]
    in_dst = _along(inside, 0, dims)
    for axis in range(1, dims):
        in_dst = in_dst & _along(inside, axis, dims)

    # the fit's slope moves into the kernel; jumps beyond the next window are cut
    lin = np.asarray(ker_lin, dtype=np.float64)
    jumps = np.arange(ker_base.shape[-1])
    reach = jumps[None, :] < d_len[:, None]
    klog = ker_base
    for axis in range(dims):
        klog = klog + _along(jumps[None, :] * (lin + slopes[axis])[..., None], axis, dims)
        klog = np.where(_along(reach, axis, dims), klog, -np.inf)
    peak = klog.reshape(steps, -1).max(axis=1)
    kernel = np.exp(klog - _per_step(peak, dims))

    # the fit's plane and the kernel's peak move into the destination
    w2 = plane(shift[:, None] + offs[None, :])
    for part in dst:
        w2 = w2 + part
    w2 = w2 + _per_step(peak, dims)
    w2 = np.where(in_dst, w2, -np.inf)
    if float(w2.max()) > _EXP_GUARD:
        return None
    live = np.isfinite(w2)

    # the source keeps its residual from the plane, on the counts it can hold
    e1 = src - plane(offs[None, :])
    in_src = np.zeros_like(live)
    in_src[(0,) * (dims + 1)] = True
    in_src[1:] = live[:-1]
    e1 = np.where(in_src, e1, 0.0)
    if float(np.abs(e1).max()) > _EXP_GUARD:
        return None
    src_scale = np.exp(e1)
    dst_scale = np.exp(w2)

    conv = _flat_convolution(kernel, width)
    last_start = kernel.shape[1] - 1  # the next window still lies inside the convolution
    probs = np.zeros((width,) * dims)
    probs[(0,) * dims] = 1.0
    log_scale = 0.0
    for t, a in enumerate(shift.tolist()):
        full = conv(probs * src_scale[t], t)
        if 0 <= a <= last_start:
            probs = full[(slice(a, a + width),) * dims] * dst_scale[t]
        else:
            probs = _window(full, a, width) * dst_scale[t]
        total = float(probs.sum())
        if total <= 0.0:
            return 0.0
        if total < _TINY:
            probs = probs / total
            log_scale += math.log(total)
    return float(min(1.0, probs.sum() * math.exp(log_scale)))


def _flat_convolution(kernel: np.ndarray, width: int):
    """Full convolution of a (width[, width]) state with step t's kernel,
    as one ``np.convolve`` for either shape.

    In two dimensions every row of the state and of the (J, J) kernel is
    zero-padded to the output width M = width + J - 1; the convolution of
    the flattened arrays then holds the 2-D result at row stride M, since
    no row's sum reaches past its padding.  The trailing padding of each
    last row is left off, so the flat result has exactly M * M entries.
    The kernels are padded once per pass.
    """
    if kernel.ndim == 2:
        return lambda state, t: np.convolve(state, kernel[t])
    steps, jumps = kernel.shape[:2]
    m = width + jumps - 1
    flat_kernels = np.zeros((steps, jumps, m))
    flat_kernels[:, :, :jumps] = kernel
    flat_kernels = flat_kernels.reshape(steps, -1)[:, : (jumps - 1) * m + jumps]
    rows = np.zeros((width, m))
    head = rows[:, :width]
    flat_state = rows.reshape(-1)[: (width - 1) * m + width]

    def conv(state, t):
        head[...] = state
        return np.convolve(flat_state, flat_kernels[t]).reshape(m, m)

    return conv


def dense_pass(lo, hi, src, ker_base, dst, ker_lin=0.0) -> float:
    """The dense route of ``forward_mass``: each step's transition matrix
    ``exp(src[r] + ker[r' - r] + dst[r'])`` over the live counts."""
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    if _unreachable(hi[1:] - lo[1:], hi[1:] - lo[:-1] + 1):
        return 0.0
    dims = src.ndim - 1
    steps = src.shape[0]
    n_jumps = ker_base.shape[-1]
    lin = np.broadcast_to(np.asarray(ker_lin, dtype=np.float64), (steps,))
    kers = np.broadcast_to(ker_base, (steps,) + ker_base.shape[1:])
    cells = np.zeros((1, dims), dtype=np.int64)
    probs = np.ones(1)
    log_scale = 0.0
    for t in range(steps):
        width = int(hi[t + 1] - lo[t + 1]) + 1
        grid = np.indices((width,) * dims).reshape(dims, -1).T
        at = tuple(grid.T)
        log_dst = sum(part[t][at] for part in dst)
        keep = np.isfinite(log_dst)
        new_cells, log_dst = grid[keep], log_dst[keep]
        jump = (new_cells[:, None, :] + lo[t + 1]) - (cells[None, :, :] + lo[t])
        ok = np.all((jump >= 0) & (jump < n_jumps), axis=2)
        jump = np.where(ok[..., None], jump, 0)
        log_k = kers[t][tuple(np.moveaxis(jump, 2, 0))]
        if lin[t] != 0.0:
            log_k = log_k + lin[t] * jump.sum(axis=2)
        log_t = src[t][tuple(cells.T)][None, :] + log_k + log_dst[:, None]
        probs = np.where(ok, np.exp(log_t), 0.0) @ probs
        total = float(probs.sum())
        if total <= 0.0:
            return 0.0
        if total < _TINY:
            probs = probs / total
            log_scale += math.log(total)
        cells = new_cells
    return float(min(1.0, probs.sum() * math.exp(log_scale)))
