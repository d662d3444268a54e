"""The `infer` overlay: a 3x3 marker on each keypoint and a chain of
Bresenham edges between consecutive keypoints, painted onto a (1, 3, H, W)
image in one numpy pass."""

import numpy as np

MARKER_COLORS = [
    (255, 60, 60), (60, 220, 60), (80, 120, 255), (240, 220, 60),
    (230, 80, 230), (70, 220, 220), (250, 150, 60), (160, 255, 120),
]
LINE_COLOR = (255, 255, 255)


def line_pixels(edges, w: int, h: int):
    """On-canvas pixels of Bresenham's line between the rounded ends of each
    edge (x0, y0, x1, y1), as flat indices y * w + x, with the index of the
    edge each pixel belongs to.

    A walk steps one pixel at a time along its major axis, the one with the
    longer extent. After n steps the minor coordinate has moved
    (2*d_minor*n + d_major) // (2*d_major) pixels. So each edge's state at its
    first step whose major coordinate is on the canvas is worked out in exact
    integers, and the steps up to its last such step are laid out for every
    edge at once in int64: a joint far off the canvas costs no more than one
    on it, and the pixels are those of the whole walk.
    """
    # per edge: steps, r, a, b, y, s_minor, minor extent, base, major step,
    # minor step, edge
    table = []
    for e, ends in enumerate(edges):
        x0, y0, x1, y1 = map(round, ends)   # exact ints, half to even
        by_rows = abs(y1 - y0) > abs(x1 - x0)
        if by_rows:
            x0, y0, x1, y1 = y0, x0, y1, x1
        size_major, size_minor = (h, w) if by_rows else (w, h)
        d_major, d_minor = abs(x1 - x0), abs(y1 - y0)
        s_major = 1 if x0 < x1 else -1
        s_minor = 1 if y0 < y1 else -1
        # steps n in [0, d_major] whose major coordinate x0 + s_major * n is on the canvas
        lo, hi = (-x0, size_major - 1 - x0) if s_major > 0 else (x0 - size_major + 1, x0)
        first, last = max(lo, 0), min(hi, d_major)
        steps = last - first + 1
        # after first + k steps the minor coordinate is y + s_minor * ((r + a*k) // b),
        # and it moves by at most k
        a, b = 2 * d_minor, 2 * max(d_major, 1)
        moved, r = divmod(a * first + d_major, b)
        x, y = x0 + s_major * first, y0 + s_minor * moved
        if steps <= 0 or not -steps < y < size_minor + steps:
            continue
        base, major_step, minor_step = (x * w + y, s_major * w, s_minor) if by_rows \
            else (y * w + x, s_major, s_minor * w)
        if b * steps < 2 ** 62:
            table.append((steps, r, a, b, y, s_minor, size_minor, base,
                          major_step, minor_step, e))
        else:   # ends beyond int64 range: each step laid out on its own, exactly
            for k in range(steps):
                i = (r + a * k) // b
                table.append((1, 0, 0, 1, y + s_minor * i, s_minor, size_minor,
                              base + major_step * k + minor_step * i, 0, 0, e))
    if not table:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    table = np.array(table, dtype=np.int64)
    steps = table[:, 0]
    row = np.repeat(np.arange(len(table)), steps)
    k = np.arange(len(row)) - np.repeat(np.cumsum(steps) - steps, steps)
    # column by column, to keep the overlay's temporaries small: larger ones
    # (a 0.4 MB (pixels, 11) gather here, an int64 paint-key canvas) left a
    # third to a half of infer processes in a glibc heap mode that re-faults
    # about 22 MB on every request
    r, a, b, y, s_minor, size_minor, base, major_step, minor_step, edge = \
        (table[row, j] for j in range(1, 11))
    moved = (r + a * k) // b
    minor = y + s_minor * moved
    on = (minor >= 0) & (minor < size_minor)
    flat = base + major_step * k + minor_step * moved
    return flat[on], edge[on]


def draw_overlay(image: np.ndarray, poses) -> np.ndarray:
    """Chain edges between consecutive keypoints plus a 3x3 marker on each
    keypoint, painted pose by pose: pose p's edges, then its markers in joint
    order, then pose p+1 over them.

    Every pixel write carries a paint key that grows in that order, p * (K+1)
    for pose p's edges and p * (K+1) + 1 + j for its marker of joint j, and
    the key picks the colour. A pixel keeps the write with the largest key,
    the last one painted; edges of one pose share a key and a colour.
    """
    canvas = image.copy()
    if not poses:
        return canvas
    h, w = canvas.shape[2], canvas.shape[3]
    joints = [inst.keypoints for inst in poses]
    stride = 1 + max(len(kp) for kp in joints)
    edges, edge_keys = [], []
    for p, kp in enumerate(joints):
        pts = kp.tolist()
        edges += [(x0, y0, x1, y1) for (x0, y0, _), (x1, y1, _) in zip(pts, pts[1:])]
        edge_keys += [p * stride] * (len(pts) - 1)
    line_pix, edge = line_pixels(edges, w, h)

    # markers: centres rounded half to even, as round() does; clipping keeps a
    # far centre off the canvas and in int64
    xy = np.concatenate(joints)[:, :2]
    cx = np.rint(np.clip(xy[:, 0], -2, w + 1)).astype(np.int64)
    cy = np.rint(np.clip(xy[:, 1], -2, h + 1)).astype(np.int64)
    px = cx[:, None, None] + np.arange(-1, 2)[None, None, :]
    py = cy[:, None, None] + np.arange(-1, 2)[None, :, None]
    on = (px >= 0) & (px < w) & (py >= 0) & (py < h)          # (joints, 3, 3)
    joint_keys = np.concatenate([p * stride + 1 + np.arange(len(kp))
                                 for p, kp in enumerate(joints)])

    # int32 keeps this temporary small, for the reason line_pixels gives
    top = np.full(h * w, -1, dtype=np.int32)
    np.maximum.at(top, np.concatenate([line_pix, (py * w + px)[on]]),
                  np.concatenate([np.asarray(edge_keys, dtype=np.int64)[edge],
                                  np.broadcast_to(joint_keys[:, None, None], on.shape)[on]]))
    painted = np.flatnonzero(top >= 0)
    palette = np.array([LINE_COLOR] + [MARKER_COLORS[j % len(MARKER_COLORS)]
                                       for j in range(stride - 1)]) / 255.0
    ys, xs = np.divmod(painted, w)
    canvas[0][:, ys, xs] = palette[top[painted] % stride].T
    return canvas
