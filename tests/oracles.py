"""Independent reference implementations used to check the fast kernels.

Everything here is deliberately written as plain scalar loops (or direct
formula transcriptions) so it shares no code path with the package. The
float32 variants accumulate in the same canonical ascending order the
kernels document, which makes exact comparisons meaningful. The model-file
builders at the end are the exception: they assemble SLM1 bytes by hand.
"""

import hashlib
import json
import math
import struct

import numpy as np


def matmul_triple_loop_f32(a, b):
    """Scalar float32 triple loop, k ascending."""
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), dtype=np.float32)
    for i in range(m):
        for j in range(n):
            acc = np.float32(0.0)
            for kk in range(k):
                acc = np.float32(acc + np.float32(a[i, kk] * b[kk, j]))
            out[i, j] = acc
    return out


def _pad_amounts(size, k, stride, padding):
    if padding == "valid":
        return 0, 0
    out = -(-size // stride)
    total = max((out - 1) * stride + k - size, 0)
    lo = total // 2
    return lo, total - lo


def conv2d_loop(x, w, b=None, padding="valid", stride=1):
    """Six-nested-loop cross-correlation in float64."""
    if isinstance(stride, int):
        stride = (stride, stride)
    kh, kw, cin, cout = w.shape
    ph = _pad_amounts(x.shape[0], kh, stride[0], padding)
    pw = _pad_amounts(x.shape[1], kw, stride[1], padding)
    xp = np.pad(x.astype(np.float64), (ph, pw, (0, 0)))
    oh = (xp.shape[0] - kh) // stride[0] + 1
    ow = (xp.shape[1] - kw) // stride[1] + 1
    out = np.zeros((oh, ow, cout))
    for i in range(oh):
        for j in range(ow):
            for co in range(cout):
                acc = 0.0 if b is None else float(b[co])
                for di in range(kh):
                    for dj in range(kw):
                        for ci in range(cin):
                            acc += float(xp[i * stride[0] + di, j * stride[1] + dj, ci]) * float(
                                w[di, dj, ci, co]
                            )
                out[i, j, co] = acc
    return out


def conv3d_loop(x, w, b=None, padding="valid", stride=1):
    """Eight-nested-loop cross-correlation in float64."""
    if isinstance(stride, int):
        stride = (stride, stride, stride)
    kt, kh, kw, cin, cout = w.shape
    pt = _pad_amounts(x.shape[0], kt, stride[0], padding)
    ph = _pad_amounts(x.shape[1], kh, stride[1], padding)
    pw = _pad_amounts(x.shape[2], kw, stride[2], padding)
    xp = np.pad(x.astype(np.float64), (pt, ph, pw, (0, 0)))
    ot = (xp.shape[0] - kt) // stride[0] + 1
    oh = (xp.shape[1] - kh) // stride[1] + 1
    ow = (xp.shape[2] - kw) // stride[2] + 1
    out = np.zeros((ot, oh, ow, cout))
    for t in range(ot):
        for i in range(oh):
            for j in range(ow):
                for co in range(cout):
                    acc = 0.0 if b is None else float(b[co])
                    for dt in range(kt):
                        for di in range(kh):
                            for dj in range(kw):
                                for ci in range(cin):
                                    acc += float(
                                        xp[
                                            t * stride[0] + dt,
                                            i * stride[1] + di,
                                            j * stride[2] + dj,
                                            ci,
                                        ]
                                    ) * float(w[dt, di, dj, ci, co])
                    out[t, i, j, co] = acc
    return out


def conv_whole_matrix(x, w, b=None, padding="valid", stride=1):
    """Conv forward as one whole-matrix product: the full im2col in float64,
    one GEMM with the float64 kernel, the bias added in float64, and one
    rounding to x's dtype. Any number of spatial dims; x is (spatial..., Cin)
    and w is (k..., Cin, Cout)."""
    nd = w.ndim - 2
    if isinstance(stride, int):
        stride = (stride,) * nd
    pads = [_pad_amounts(x.shape[i], w.shape[i], stride[i], padding) for i in range(nd)]
    xp = np.pad(x, pads + [(0, 0)])
    # (out..., Cin, k...) for stride 1, subsampled, then Cin moved last.
    win = np.lib.stride_tricks.sliding_window_view(xp, w.shape[:nd], axis=tuple(range(nd)))
    win = np.moveaxis(win[tuple(slice(None, None, s) for s in stride)], nd, -1)
    outs = win.shape[:nd]
    cols = win.reshape(-1, math.prod(w.shape[:-1])).astype(np.float64)
    out = cols @ w.reshape(-1, w.shape[-1]).astype(np.float64)
    if b is not None:
        out += b
    return out.reshape(outs + (w.shape[-1],)).astype(x.dtype)


def maxpool_loop(x, window, stride=None):
    """Brute-force windowed scan over any number of spatial dims."""
    nd = len(window)
    stride = window if stride is None else stride
    in_sp = x.shape[:nd]
    outs = tuple((s - w) // st + 1 for s, w, st in zip(in_sp, window, stride))
    channels = x.shape[-1]
    out = np.zeros(outs + (channels,), dtype=x.dtype)
    for pos in np.ndindex(*outs):
        for c in range(channels):
            best = None
            for off in np.ndindex(*window):
                coord = tuple(pos[i] * stride[i] + off[i] for i in range(nd)) + (c,)
                v = x[coord]
                if best is None or v > best:
                    best = v
            out[pos + (c,)] = best
    return out


def col2im_offset_loop(cols, shape, k_sp, strides, pads, outs):
    """Adjoint of im2col as one strided ``+=`` per kernel offset, in
    ascending row-major offset order, on the padded input cut back to
    ``shape``: the general path of ``tensor._col2im``."""
    n = len(k_sp)
    cells = cols.reshape(tuple(outs) + tuple(k_sp) + tuple(shape[n:]))
    padded = tuple(e + lo + hi for e, (lo, hi) in zip(shape, pads)) + tuple(shape[n:])
    out = np.zeros(padded, dtype=cols.dtype)
    for offset in np.ndindex(*k_sp):
        dst = tuple(slice(o, o + e * s, s) for o, e, s in zip(offset, outs, strides))
        out[dst] += cells[(slice(None),) * n + offset]
    return out[tuple(slice(lo, lo + e) for e, (lo, _) in zip(shape, pads))]


def maxpool_grad_loop(x, g, window, stride=None):
    """Input gradient of max pooling: each output's upstream gradient goes to
    the first maximum of its window in row-major scan order."""
    nd = len(window)
    stride = window if stride is None else stride
    gx = np.zeros_like(x)
    for pos in np.ndindex(*g.shape[:nd]):
        for c in range(x.shape[-1]):
            best = None
            for off in np.ndindex(*window):
                coord = tuple(pos[i] * stride[i] + off[i] for i in range(nd)) + (c,)
                if best is None or x[coord] > x[best]:
                    best = coord
            gx[best] += g[pos + (c,)]
    return gx


def _sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def rnn_recurrence(seq, wx, wh, b):
    """Scalar-by-scalar tanh recurrence from a zero state; returns (T, U)."""
    steps, dim = seq.shape
    units = wx.shape[1]
    h = [0.0] * units
    outs = []
    for t in range(steps):
        nh = []
        for u in range(units):
            acc = float(b[u])
            for d in range(dim):
                acc += float(seq[t, d]) * float(wx[d, u])
            for v in range(units):
                acc += h[v] * float(wh[v, u])
            nh.append(math.tanh(acc))
        h = nh
        outs.append(list(h))
    return np.array(outs)


def lstm_recurrence(seq, wx, wh, b):
    """Scalar-by-scalar LSTM with (i, f, g, o) gate packing; returns (T, U)."""
    steps, dim = seq.shape
    units = wh.shape[0]
    h = [0.0] * units
    c = [0.0] * units
    outs = []
    for t in range(steps):
        gates = []
        for gu in range(4 * units):
            acc = float(b[gu])
            for d in range(dim):
                acc += float(seq[t, d]) * float(wx[d, gu])
            for v in range(units):
                acc += h[v] * float(wh[v, gu])
            gates.append(acc)
        nh, nc = [], []
        for u in range(units):
            i = _sigmoid(gates[u])
            f = _sigmoid(gates[units + u])
            g = math.tanh(gates[2 * units + u])
            o = _sigmoid(gates[3 * units + u])
            cc = f * c[u] + i * g
            nc.append(cc)
            nh.append(o * math.tanh(cc))
        h, c = nh, nc
        outs.append(list(h))
    return np.array(outs)


def convlstm_recurrence(seq, wx, wh, b):
    """Per-pixel conv expansion + scalar LSTM recurrence; returns (T, H, W, U).

    Same-padding, stride 1, gate packing (i, f, g, o) on the channel axis.
    """
    steps, height, width, cin = seq.shape
    kh, kw, _, gate_ch = wx.shape
    units = gate_ch // 4
    plo_h = (kh - 1) // 2
    plo_w = (kw - 1) // 2
    h = np.zeros((height, width, units))
    c = np.zeros((height, width, units))
    outs = []

    def conv_at(src, w, y, x, ch_out):
        acc = 0.0
        cin_local = src.shape[-1]
        for dy in range(kh):
            for dx in range(kw):
                sy, sx = y + dy - plo_h, x + dx - plo_w
                if 0 <= sy < height and 0 <= sx < width:
                    for ci in range(cin_local):
                        acc += float(src[sy, sx, ci]) * float(w[dy, dx, ci, ch_out])
        return acc

    for t in range(steps):
        nh = np.zeros_like(h)
        nc = np.zeros_like(c)
        for y in range(height):
            for x in range(width):
                for u in range(units):
                    zi = conv_at(seq[t], wx, y, x, u) + conv_at(h, wh, y, x, u) + float(b[u])
                    zf = (
                        conv_at(seq[t], wx, y, x, units + u)
                        + conv_at(h, wh, y, x, units + u)
                        + float(b[units + u])
                    )
                    zg = (
                        conv_at(seq[t], wx, y, x, 2 * units + u)
                        + conv_at(h, wh, y, x, 2 * units + u)
                        + float(b[2 * units + u])
                    )
                    zo = (
                        conv_at(seq[t], wx, y, x, 3 * units + u)
                        + conv_at(h, wh, y, x, 3 * units + u)
                        + float(b[3 * units + u])
                    )
                    i, f = _sigmoid(zi), _sigmoid(zf)
                    g, o = math.tanh(zg), _sigmoid(zo)
                    cc = f * float(c[y, x, u]) + i * g
                    nc[y, x, u] = cc
                    nh[y, x, u] = o * math.tanh(cc)
        h, c = nh, nc
        outs.append(h.copy())
    return np.stack(outs)


def report_by_counting(truth, pred, n):
    """Per-class precision/recall/f1 from direct TP/FP/FN counting."""
    rows = []
    for c in range(n):
        tp = sum(1 for t, p in zip(truth, pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(truth, pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(truth, pred) if t == c and p != c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        rows.append((precision, recall, f1, tp + fn))
    accuracy = sum(1 for t, p in zip(truth, pred) if t == p) / len(truth)
    return rows, accuracy


def adam_unrolled(p0, grads, lr, b1=0.9, b2=0.999, eps=1e-7):
    """Hand-unrolled Adam recurrence on a scalar parameter, float64."""
    p, m, v = float(p0), 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        p -= lr * mhat / (math.sqrt(vhat) + eps)
    return p


# Elements in one (M, chunk, N) product block of the reference fold.
MATMUL_BLOCK_ELEMS = 1 << 16


def ordered_matmul_accumulate(a, b):
    """Ascending-k matmul fold by chunked ``np.add.accumulate``, first
    product as is (signed zeros included): the byte-level reference for
    ``tensor._ordered_matmul``, whichever way that vectorises the fold."""
    m, k = a.shape
    n = b.shape[1]
    step = max(1, MATMUL_BLOCK_ELEMS // (m * n))
    out = None
    for lo in range(0, k, step):
        prod = a[:, lo : lo + step, None] * b[None, lo : lo + step, :]
        if out is not None:
            prod[:, 0] += out
        out = np.add.accumulate(prod, axis=1)[:, -1]
    return out


def netpbm_header_scan(data):
    """(width, height, maxval, payload offset) of a binary netpbm header, or
    None if it is not one: the byte-at-a-time token scanner the header
    regex replaced. Tokens are whitespace-separated, '#' starts a comment
    that runs to the next newline, and one whitespace byte ends the header."""
    after = data[2:3]
    if data[:2] not in (b"P5", b"P6") or not (after.isspace() or after == b"#"):
        return None
    tokens = []
    i, n = 2, len(data)
    while len(tokens) < 3:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i : i + 1] == b"#":
            while i < n and data[i : i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < n and not data[j : j + 1].isspace():
            j += 1
        if j == i:
            return None
        tokens.append(data[i:j])
        i = j
    if i >= n or not all(t.isdigit() for t in tokens):
        return None
    return (*(int(t) for t in tokens), i + 1)


def split_model_file(raw):
    """(header dict, payload bytes) of the bytes of an SLM1 file."""
    (hlen,) = struct.unpack("<I", raw[4:8])
    return json.loads(raw[8 : 8 + hlen]), raw[(8 + hlen + 7) & ~7 :]


def model_file(header, payload):
    """SLM1 bytes: magic, header length, the header as ``save_model`` dumps
    it, zero padding to a multiple of 8 bytes, then the payload."""
    hb = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    prefix = b"SLM1" + struct.pack("<I", len(hb)) + hb
    return prefix + bytes(((len(prefix) + 7) & ~7) - len(prefix)) + payload


def with_checksum(header, payload):
    """``model_file`` with the payload's sha256 hex digest as ``payload_sha256``."""
    return model_file({**header, "payload_sha256": hashlib.sha256(payload).hexdigest()}, payload)
