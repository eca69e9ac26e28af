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

Both count laws hand the pass the same five arrays,
``(lo, hi, src, ker, dst)``: the windows' ends, and per step one log
source, one log jump kernel and one log destination array (see
``forward_mass``).  Before exponentiating, an affine fit of the source
over its window moves the bulk of the source into the jump and
destination factors (the affine terms cancel within every step), and
the kernel's peak moves into the destination.  A step whose scaled
factors would still leave the range of ``exp`` in double precision
runs on its transition matrix instead, built from the same log factors
(``_dense_step``), and the steps around it still convolve.  Most such
steps are the first step at large n, which starts from one certain
count, so the fit has nothing to fit (every pass at n >= 10 000 on the
default grid); single-count windows (gamma near 1) and the wide steps
of a coarse grid can trip as well.  A tripped step's matrix has up to
W x W cells, W^2 x W^2 in two coordinates.

The pass can also stop short and hand back its state after chosen
steps, ``(probs, log_scale, lo)``: the mass of count ``lo + i`` with
every earlier window kept is ``probs[i] * exp(log_scale)``.  One
sample's coverage joins two such states from half a pass when its
problem reflects onto itself (``bands_single._band_mass``).

``route_count`` counts the passes run on the calling thread.  Every
pass counts as ``"half"`` (by ``bands_single._band_mass``) or ``"full"``
(by ``_band_mass`` and ``bands_multi._chain_mass``).  A pass that ran
at least one step on its matrix also counts as ``"dense"`` (by
``forward_mass``) and logs one DEBUG record on the ``ecdf_bands``
logger.
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


def route_count(route: str) -> int:
    """Number of passes run so far on the calling thread by ``route``:
    ``"half"`` or ``"full"``, or ``"dense"``, the passes of either route
    that ran at least one step on its transition matrix.

    The coverage functions return a bare probability, so a search that
    wants to report its routes reads these counts before and after its
    own evaluations; the counts are per thread, so searches that run
    side by side in a thread pool do not see each other's passes.
    """
    return getattr(_local, route, 0)


def count_route(route: str) -> None:
    """Count one pass by ``route`` on the calling thread."""
    setattr(_local, route, route_count(route) + 1)


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


def forward_mass(lo, hi, src, ker, dst, keep=()):
    """Probability that the count stays inside every window.

    The pass starts at count ``lo[0]`` in every coordinate with
    probability one.  Before step t every coordinate of the count lies in
    ``[lo[t], hi[t]]`` (``lo`` and ``hi`` have T + 1 entries, T >= 1).
    Arrays are indexed by offsets from the window's low end, padded to a
    common width W = max(hi - lo) + 1, with one axis per count coordinate
    (one or two):

    - ``src``, (T, W[, W]): log source factor over window t.  It must be
      finite over the whole padded box, since the affine fit reads its
      corners; clamp arguments that leave the count range.
    - ``ker``, (T, J[, J]): step t's log jump kernel for jumps 0..J-1 on
      each axis, -inf where a jump is impossible.
    - ``dst``, (T, W[, W]): log destination factor over window t + 1;
      -inf marks counts inside the window that are not allowed.

    Each step is one ``np.convolve``, for one coordinate or two.  With
    two coordinates (three chains) the flat convolution adds the same
    products as a 2-D convolution in another order, so the two agree to
    rounding: coverages on the default grids differ by under 1e-15.  A
    step whose scaled factors leave double range runs on its transition
    matrix (``_dense_step``) and hands the next step a state of the same
    meaning.  A pass that ran such steps counts as ``"dense"`` and logs
    one DEBUG record with their number; the caller counts its route.

    With ``keep``, a tuple of step counts in 1..T, the pass returns in
    place of its sum its states after those steps, one per distinct
    count, in order: a list of ``(probs, log_scale, lo)``, with
    ``probs`` over the padded window that starts at count ``lo``.  It
    still returns 0.0 once no mass is left.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    dims = src.ndim - 1
    steps, width = src.shape[0], src.shape[1]
    src_w = hi[:-1] - lo[:-1]
    dst_w = hi[1:] - lo[1:]
    d_len = hi[1:] - lo[:-1] + 1
    # an empty window, or one whose counts all lie below the previous
    # window's (no nonnegative jump reaches it)
    if int(dst_w.min()) < 0 or int(d_len.min()) < 1:
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
    jumps = np.arange(ker.shape[-1])
    reach = jumps[None, :] < d_len[:, None]
    klog = ker
    for axis in range(dims):
        klog = klog + _along(jumps[None, :] * slopes[axis][:, None], axis, dims)
        klog = np.where(_along(reach, axis, dims), klog, -np.inf)
    peak = klog.reshape(steps, -1).max(axis=1)
    kernel = np.exp(klog - _per_step(peak, dims))

    # the fit's plane and the kernel's peak move into the destination
    w2 = plane(shift[:, None] + offs[None, :]) + dst + _per_step(peak, dims)
    w2 = np.where(in_dst, w2, -np.inf)
    live = np.isfinite(w2)

    # the source keeps its residual from the plane, on the counts it can hold
    e1 = src - plane(offs[None, :])
    in_src = np.zeros_like(live)
    in_src[(0,) * (dims + 1)] = True
    in_src[1:] = live[:-1]
    e1 = np.where(in_src, e1, 0.0)

    # a step whose scaled factors leave double range runs on its matrix
    scale = np.maximum(w2, np.abs(e1))
    dense = np.zeros(steps, dtype=bool)
    if float(scale.max()) > _EXP_GUARD:
        dense = scale.reshape(steps, -1).max(axis=1) > _EXP_GUARD
        e1 = np.where(_per_step(dense, dims), 0.0, e1)
        w2 = np.where(_per_step(dense, dims), -np.inf, w2)
    src_scale = np.exp(e1)
    dst_scale = np.exp(w2)

    conv = _flat_convolution(kernel, width)
    last_start = kernel.shape[1] - 1  # the next window still lies inside the convolution
    probs = np.zeros((width,) * dims)
    probs[(0,) * dims] = 1.0
    log_scale = 0.0
    kept = []
    ran = 0
    for t, (a, on_matrix) in enumerate(zip(shift.tolist(), dense.tolist())):
        if on_matrix:
            ran += 1
            probs = _dense_step(probs, a, src[t], ker[t], dst[t], live[t])
        else:
            full = conv(probs * src_scale[t], t)
            if 0 <= a <= last_start:
                probs = full[(slice(a, a + width),) * dims] * dst_scale[t]
            else:
                probs = _window(full, a, width) * dst_scale[t]
        total = float(probs.sum())
        if total <= 0.0:
            break
        if total < _TINY:
            probs = probs / total
            log_scale += math.log(total)
        if t + 1 in keep:
            kept.append((probs, log_scale, int(lo[t + 1])))
    if ran:
        count_route("dense")
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug(
                "exact coverage: %d of %d steps left double range and ran on their "
                "transition matrices, %d-D windows up to %d wide",
                ran,
                steps,
                dims,
                width,
            )
    if total <= 0.0:
        return 0.0
    if keep:
        return kept
    return float(min(1.0, probs.sum() * math.exp(log_scale)))


def _dense_step(probs, shift: int, src, ker, dst, live):
    """One step of ``forward_mass`` on its transition matrix
    ``exp(src[r] + ker[r' - r] + dst[r'])``, from the cells of ``probs``
    that hold mass to the ``live`` cells of the next window, which starts
    ``shift`` counts above this one.

    Every entry is a true transition probability, so none overflows, and
    the state keeps its scale: true mass times ``exp(-log_scale)``.
    """
    old = np.array(np.nonzero(probs))
    new = np.array(np.nonzero(live))
    jump = new[:, :, None] + shift - old[:, None, :]
    ok = np.all((jump >= 0) & (jump < ker.shape[-1]), axis=0)
    log_t = src[tuple(old)][None, :] + ker[tuple(np.where(ok, jump, 0))] + dst[tuple(new)][:, None]
    out = np.zeros_like(probs)
    out[tuple(new)] = np.exp(np.where(ok, log_t, -np.inf)) @ probs[tuple(old)]
    return out


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

